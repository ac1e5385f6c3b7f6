#include "check/checker.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace ap::check {

namespace {

const char* basename_of(const char* file) {
  if (file == nullptr) return "";
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p)
    if (*p == '/' || *p == '\\') base = p + 1;
  return base;
}

/// CSV rows and one-line reports must stay one field / one line: commas
/// and newlines in free text become ';'.
std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  return s;
}

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

bool ranges_overlap(std::uint64_t a0, std::uint64_t a1, std::uint64_t b0,
                    std::uint64_t b1) {
  return a0 < b1 && b0 < a1;
}

}  // namespace

const char* to_string(Violation::Kind k) {
  switch (k) {
    case Violation::Kind::WriteReadRace: return "write_read_race";
    case Violation::Kind::ReadBeforeQuiet: return "read_before_quiet";
    case Violation::Kind::UnquiescedAtBarrier: return "unquiesced_at_barrier";
    case Violation::Kind::NbiReordered: return "nbi_reordered";
    case Violation::Kind::NbiDuplicated: return "nbi_duplicated";
    case Violation::Kind::QuietInterrupted: return "quiet_interrupted";
    case Violation::Kind::ApiMisuse: return "api_misuse";
  }
  return "unknown";
}

void write_text(std::ostream& os, const std::vector<Violation>& v,
                std::uint64_t dropped) {
  if (v.empty() && dropped == 0) {
    os << "no BSP conformance violations\n";
    return;
  }
  for (const Violation& x : v) {
    os << "  [" << to_string(x.kind) << "] pe " << x.pe;
    if (x.other_pe >= 0) os << " (peer " << x.other_pe << ")";
    os << " superstep " << x.superstep;
    if (x.bytes != 0)
      os << " heap[" << x.offset << ",+" << x.bytes << ")";
    if (!x.callsite.empty()) os << " at " << x.callsite;
    if (!x.detail.empty()) os << ": " << x.detail;
    os << "\n";
  }
  os << v.size() << " violation(s)";
  if (dropped != 0) os << " (+" << dropped << " dropped past cap)";
  os << "\n";
}

void write_json(std::ostream& os, const std::vector<Violation>& v,
                std::uint64_t dropped) {
  os << "{\n  \"count\": " << v.size() << ",\n  \"dropped\": " << dropped
     << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Violation& x = v[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"kind\": \"" << to_string(x.kind) << "\", \"pe\": " << x.pe
       << ", \"other_pe\": " << x.other_pe
       << ", \"superstep\": " << x.superstep << ", \"offset\": " << x.offset
       << ", \"bytes\": " << x.bytes << ", \"callsite\": ";
    json_escape(os, x.callsite);
    os << ", \"detail\": ";
    json_escape(os, x.detail);
    os << "}";
  }
  os << (v.empty() ? "]" : "\n  ]") << "\n}\n";
}

void Checker::bind(int num_pes) {
  num_pes_ = num_pes;
  live_ = num_pes;
  arrived_ = 0;
  alive_.assign(static_cast<std::size_t>(num_pes), 1);
  vc_.assign(static_cast<std::size_t>(num_pes),
             std::vector<std::uint64_t>(static_cast<std::size_t>(num_pes), 0));
  writes_.assign(static_cast<std::size_t>(num_pes), {});
  staged_.assign(static_cast<std::size_t>(num_pes), {});
  quiet_.assign(static_cast<std::size_t>(num_pes), {});
  step_.assign(static_cast<std::size_t>(num_pes), 0);
}

std::uint32_t Checker::superstep_of(int pe) const {
  if (pe < 0 || pe >= num_pes_) return 0;
  return step_[static_cast<std::size_t>(pe)];
}

std::string Checker::format_callsite(const char* file, unsigned line) {
  if (file == nullptr || *file == '\0') return {};
  std::ostringstream os;
  os << basename_of(file) << ':' << line;
  return os.str();
}

void Checker::record(Violation v) {
  if (violations_.size() >= kMaxViolations) {
    ++dropped_;
    return;
  }
  v.callsite = sanitize(std::move(v.callsite));
  v.detail = sanitize(std::move(v.detail));
  violations_.push_back(std::move(v));
}

void Checker::insert_write(int target, std::uint64_t off, std::uint64_t n,
                           int writer, const char* file, unsigned line) {
  if (n == 0) return;
  auto& wvc = vc_[static_cast<std::size_t>(writer)];
  const std::uint64_t tick = ++wvc[static_cast<std::size_t>(writer)];
  auto& m = writes_[static_cast<std::size_t>(target)];
  const std::uint64_t end = off + n;

  auto it = m.lower_bound(off);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > off) it = prev;
  }
  while (it != m.end() && it->first < end) {
    const std::uint64_t old_start = it->first;
    const WriteRec old = it->second;
    it = m.erase(it);
    if (old_start < off) {
      WriteRec left = old;
      left.end = off;
      m.emplace(old_start, left);
    }
    if (old.end > end) {
      it = m.emplace(end, old).first;  // key=end keeps [end, old.end)
    }
  }
  m.emplace(off, WriteRec{end, writer, tick, file, line});
}

void Checker::on_store(int writer, int target, std::uint64_t off,
                       std::uint64_t n, const char* file, unsigned line) {
  if (!bound() || n == 0) return;
  insert_write(target, off, n, writer, file, line);
}

void Checker::on_nbi_staged(int initiator, int target, std::uint64_t off,
                            std::uint64_t n, const char* file, unsigned line) {
  if (!bound() || n == 0) return;
  staged_[static_cast<std::size_t>(initiator)].push_back(
      Staged{target, off, n, file, line});
}

void Checker::on_quiet_begin(int pe, std::size_t outstanding) {
  if (!bound()) return;
  QuietStream& q = quiet_[static_cast<std::size_t>(pe)];
  q.active = true;
  q.expected = outstanding;
  q.max_index = -1;
  q.seen.assign(outstanding, 0);
}

void Checker::on_nbi_applied(int pe, std::size_t index) {
  if (!bound()) return;
  QuietStream& q = quiet_[static_cast<std::size_t>(pe)];
  if (!q.active) return;
  if (index >= q.seen.size()) q.seen.resize(index + 1, 0);

  const auto& staged = staged_[static_cast<std::size_t>(pe)];
  int dst = -1;
  std::uint64_t off = 0, bytes = 0;
  std::string site;
  if (index < staged.size()) {
    dst = staged[index].dst;
    off = staged[index].off;
    bytes = staged[index].bytes;
    site = format_callsite(staged[index].file, staged[index].line);
  }

  if (q.seen[index]) {
    Violation v;
    v.kind = Violation::Kind::NbiDuplicated;
    v.pe = pe;
    v.other_pe = dst;
    v.superstep = superstep_of(pe);
    v.offset = off;
    v.bytes = bytes;
    v.callsite = site;
    std::ostringstream d;
    d << "staged put #" << index << " of " << q.expected
      << " applied more than once in one quiet()";
    v.detail = d.str();
    record(std::move(v));
  } else if (static_cast<long>(index) < q.max_index) {
    Violation v;
    v.kind = Violation::Kind::NbiReordered;
    v.pe = pe;
    v.other_pe = dst;
    v.superstep = superstep_of(pe);
    v.offset = off;
    v.bytes = bytes;
    v.callsite = site;
    std::ostringstream d;
    d << "staged put #" << index << " applied after put #" << q.max_index
      << " — quiet() broke staging order";
    v.detail = d.str();
    record(std::move(v));
  }
  q.seen[index] = 1;
  q.max_index = std::max(q.max_index, static_cast<long>(index));
}

void Checker::on_quiet_suspend(int pe, std::size_t applied,
                               std::size_t remaining) {
  if (!bound()) return;
  Violation v;
  v.kind = Violation::Kind::QuietInterrupted;
  v.pe = pe;
  v.superstep = superstep_of(pe);
  std::ostringstream d;
  d << "quiet() yielded after applying " << applied << " staged put(s) with "
    << remaining << " still invisible — peers may observe partial state";
  v.detail = d.str();
  record(std::move(v));
}

void Checker::on_quiet_end(int pe) {
  if (!bound()) return;
  auto& staged = staged_[static_cast<std::size_t>(pe)];
  for (const Staged& s : staged)
    insert_write(s.dst, s.off, s.bytes, pe, s.file, s.line);
  staged.clear();
  quiet_[static_cast<std::size_t>(pe)].active = false;
}

void Checker::on_plain_read(int reader, int target, std::uint64_t off,
                            std::uint64_t n, const char* file, unsigned line) {
  if (!bound() || n == 0) return;
  const std::uint64_t end = off + n;

  // Reads of a range some PE has staged an nbi put into: the data is not
  // visible until that PE's quiet(), so the read observes stale bytes.
  for (int i = 0; i < num_pes_; ++i) {
    for (const Staged& s : staged_[static_cast<std::size_t>(i)]) {
      if (s.dst != target || !ranges_overlap(off, end, s.off, s.off + s.bytes))
        continue;
      Violation v;
      v.kind = Violation::Kind::ReadBeforeQuiet;
      v.pe = reader;
      v.other_pe = i;
      v.superstep = superstep_of(reader);
      v.offset = std::max(off, s.off);
      v.bytes = std::min(end, s.off + s.bytes) - v.offset;
      v.callsite = format_callsite(file, line);
      std::ostringstream d;
      d << "read overlaps nbi put staged at "
        << format_callsite(s.file, s.line) << " by pe " << i
        << " with no quiet() yet";
      v.detail = d.str();
      record(std::move(v));
    }
  }

  // Same-superstep write/read conflict: the read races any overlapping
  // write whose tick the reader has not acquired (via wait_until, a
  // publication-flag poll, or a barrier — barriers wipe the write set).
  auto& m = writes_[static_cast<std::size_t>(target)];
  auto& rvc = vc_[static_cast<std::size_t>(reader)];
  auto it = m.lower_bound(off);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > off) it = prev;
  }
  for (; it != m.end() && it->first < end; ++it) {
    const WriteRec& w = it->second;
    if (w.writer == reader) continue;
    auto& seen = rvc[static_cast<std::size_t>(w.writer)];
    if (seen < w.tick) {
      Violation v;
      v.kind = Violation::Kind::WriteReadRace;
      v.pe = reader;
      v.other_pe = w.writer;
      v.superstep = superstep_of(reader);
      v.offset = std::max(off, it->first);
      v.bytes = std::min(end, w.end) - v.offset;
      v.callsite = format_callsite(file, line);
      std::ostringstream d;
      d << "read races write from pe " << w.writer << " at "
        << format_callsite(w.file, w.line)
        << " in the same superstep with no synchronization";
      v.detail = d.str();
      record(std::move(v));
      // Merge anyway so one unsynchronized site reports once, not per read.
      seen = w.tick;
    }
  }
}

void Checker::on_acquire_read(int reader, std::uint64_t off, std::uint64_t n) {
  if (!bound() || n == 0) return;
  const std::uint64_t end = off + n;
  auto& m = writes_[static_cast<std::size_t>(reader)];
  auto& rvc = vc_[static_cast<std::size_t>(reader)];
  auto it = m.lower_bound(off);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > off) it = prev;
  }
  for (; it != m.end() && it->first < end; ++it) {
    const WriteRec& w = it->second;
    if (w.writer == reader) continue;
    auto& seen = rvc[static_cast<std::size_t>(w.writer)];
    seen = std::max(seen, w.tick);
  }
}

void Checker::on_atomic(int pe, int target, std::uint64_t off,
                        const char* file, unsigned line) {
  if (!bound()) return;
  const std::uint64_t end = off + 8;
  for (int i = 0; i < num_pes_; ++i) {
    for (const Staged& s : staged_[static_cast<std::size_t>(i)]) {
      if (s.dst != target || !ranges_overlap(off, end, s.off, s.off + s.bytes))
        continue;
      Violation v;
      v.kind = Violation::Kind::ReadBeforeQuiet;
      v.pe = pe;
      v.other_pe = i;
      v.superstep = superstep_of(pe);
      v.offset = std::max(off, s.off);
      v.bytes = std::min(end, s.off + s.bytes) - v.offset;
      v.callsite = format_callsite(file, line);
      std::ostringstream d;
      d << "atomic access overlaps nbi put staged at "
        << format_callsite(s.file, s.line) << " by pe " << i
        << " with no quiet() yet";
      v.detail = d.str();
      record(std::move(v));
    }
  }
}

void Checker::on_collective_arrive(int pe) {
  if (!bound()) return;
  // barrier_all quiets before arriving, so its staged set is empty here;
  // sync_all and the reductions do not — outstanding staged puts at
  // those boundaries start the next superstep with invisible writes.
  for (const Staged& s : staged_[static_cast<std::size_t>(pe)]) {
    Violation v;
    v.kind = Violation::Kind::UnquiescedAtBarrier;
    v.pe = pe;
    v.other_pe = s.dst;
    v.superstep = superstep_of(pe);
    v.offset = s.off;
    v.bytes = s.bytes;
    v.callsite = format_callsite(s.file, s.line);
    std::ostringstream d;
    d << "nbi put to pe " << s.dst
      << " still un-quiesced at collective entry";
    v.detail = d.str();
    record(std::move(v));
  }
  ++step_[static_cast<std::size_t>(pe)];
  ++arrived_;
  if (arrived_ >= live_) complete_round();
}

void Checker::on_pe_dead(int pe) {
  if (!bound() || pe < 0 || pe >= num_pes_) return;
  if (!alive_[static_cast<std::size_t>(pe)]) return;
  alive_[static_cast<std::size_t>(pe)] = 0;
  --live_;
  staged_[static_cast<std::size_t>(pe)].clear();
  quiet_[static_cast<std::size_t>(pe)].active = false;
  // Mirror shmem's collective logic: a death can complete the round the
  // survivors are already waiting in.
  if (arrived_ > 0 && arrived_ >= live_) complete_round();
}

void Checker::on_misuse(int pe, const char* what) {
  if (!bound()) return;
  Violation v;
  v.kind = Violation::Kind::ApiMisuse;
  v.pe = pe;
  v.superstep = superstep_of(pe);
  v.detail = what != nullptr ? what : "";
  record(std::move(v));
}

void Checker::complete_round() {
  arrived_ = 0;
  // The barrier orders everything before it on any PE before everything
  // after it on any PE: wipe the epoch's write set and join all clocks.
  for (auto& m : writes_) m.clear();
  std::vector<std::uint64_t> joined(static_cast<std::size_t>(num_pes_), 0);
  for (int p = 0; p < num_pes_; ++p) {
    if (!alive_[static_cast<std::size_t>(p)]) continue;
    const auto& pvc = vc_[static_cast<std::size_t>(p)];
    for (int c = 0; c < num_pes_; ++c) {
      auto idx = static_cast<std::size_t>(c);
      joined[idx] = std::max(joined[idx], pvc[idx]);
    }
  }
  for (int p = 0; p < num_pes_; ++p) {
    if (alive_[static_cast<std::size_t>(p)])
      vc_[static_cast<std::size_t>(p)] = joined;
  }
}

}  // namespace ap::check
