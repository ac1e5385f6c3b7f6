#!/usr/bin/env bash
# Conveyor fast-path bench baselines: builds the micro benches, runs each
# in --json mode (fixed comparable configs, best-of-3 inside the binary),
# and assembles BENCH_conveyor.json at the repo root. Run from anywhere;
# see docs/PERFORMANCE.md for what the metrics mean.
#
#   tools/bench.sh             # full run (~1 min)
#   tools/bench.sh --check     # regression gate vs committed baseline
#   AP_SCALE=9 tools/bench.sh  # smaller triangle graph
#
# --check reruns micro_conveyor only and compares its drain
# items_per_sec against the committed BENCH_conveyor.json; a fresh number
# more than AP_BENCH_TOLERANCE percent (default 15) below the committed
# one fails the script. Used by CI as a cheap perf smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
cmake --preset default >/dev/null
cmake --build --preset default -j "${jobs}" \
  --target micro_conveyor micro_selector scaling_triangle scaling_pe_count \
           bench_trace bench_backend bench_publish

bin=build/bench
tmp=$(mktemp -d)
trap 'rm -rf "${tmp}"' EXIT

# Pin to one core when possible: the simulator is single-threaded and
# wander between cores mostly adds noise.
run() {
  if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 "$@"
  else
    "$@"
  fi
}

# Pull `"items_per_sec"` off the result line for one bench key ("drain",
# "csv_read", ...). Works on both the committed aggregate file and a fresh
# single-bench JSON, so no JSON tooling is assumed.
items_per_sec() { # file key
  awk -v key="\"$2\"" '
    index($0, key ":") {
      if (match($0, /"items_per_sec": *[0-9.eE+-]+/)) {
        s = substr($0, RSTART, RLENGTH)
        sub(/.*: */, "", s)
        print s
        exit
      }
    }' "$1"
}

# Same idea for "alloc_bytes_per_pe" (scaling_pe_count sections).
alloc_bytes_per_pe() { # file key
  awk -v key="\"$2\"" '
    index($0, key ":") {
      if (match($0, /"alloc_bytes_per_pe": *[0-9.eE+-]+/)) {
        s = substr($0, RSTART, RLENGTH)
        sub(/.*: */, "", s)
        print s
        exit
      }
    }' "$1"
}

# "size_ratio": N off the bench_trace config line.
size_ratio() { # file
  awk '
    match($0, /"size_ratio": *[0-9.eE+-]+/) {
      s = substr($0, RSTART, RLENGTH)
      sub(/.*: */, "", s)
      print s
      exit
    }' "$1"
}

if [[ "${1:-}" == "--check" ]]; then
  tol="${AP_BENCH_TOLERANCE:-15}"
  run "${bin}/micro_conveyor" --json="${tmp}/conveyor.json"
  fail=0
  old=$(items_per_sec BENCH_conveyor.json drain)
  new=$(items_per_sec "${tmp}/conveyor.json" drain)
  if [[ -z "${old}" || -z "${new}" ]]; then
    echo "bench --check: missing items_per_sec for 'drain'" >&2
    exit 1
  fi
  if awk -v n="${new}" -v o="${old}" -v t="${tol}" \
       'BEGIN { exit !(n < o * (1 - t / 100)) }'; then
    echo "REGRESSION drain: ${new} items/s vs committed ${old} (> ${tol}% slower)"
    fail=1
  else
    echo "ok drain: ${new} items/s vs committed ${old} (tolerance ${tol}%)"
  fi

  # Trace-format gates (docs/TRACE_FORMAT.md): the binary format must stay
  # >= 5x smaller than CSV on the scaling_triangle trace, decode at least
  # 4x as fast as the CSV scanner in the same run (a decoder that is not
  # linear in rows falls below that even on these few-block shards), and
  # not regress vs the committed baseline.
  run "${bin}/bench_trace" --json="${tmp}/trace.json" >/dev/null
  ratio=$(size_ratio "${tmp}/trace.json")
  if awk -v r="${ratio}" 'BEGIN { exit !(r < 5) }'; then
    echo "REGRESSION trace size: binary only ${ratio}x smaller than CSV (gate: >= 5x)"
    fail=1
  else
    echo "ok trace size: binary ${ratio}x smaller than CSV (gate: >= 5x)"
  fi
  csv_read=$(items_per_sec "${tmp}/trace.json" csv_read)
  bin_read=$(items_per_sec "${tmp}/trace.json" bin_read)
  if awk -v b="${bin_read}" -v c="${csv_read}" 'BEGIN { exit !(b < 4 * c) }'; then
    echo "REGRESSION trace decode: binary ${bin_read} rows/s below 4x CSV ${csv_read}"
    fail=1
  else
    echo "ok trace decode: binary ${bin_read} rows/s >= 4x CSV ${csv_read}"
  fi
  old=$(items_per_sec BENCH_trace.json bin_read)
  if [[ -z "${old}" ]]; then
    echo "bench --check: missing bin_read baseline in BENCH_trace.json" >&2
    exit 1
  fi
  if awk -v n="${bin_read}" -v o="${old}" -v t="${tol}" \
       'BEGIN { exit !(n < o * (1 - t / 100)) }'; then
    echo "REGRESSION bin_read: ${bin_read} rows/s vs committed ${old} (> ${tol}% slower)"
    fail=1
  else
    echo "ok bin_read: ${bin_read} rows/s vs committed ${old} (tolerance ${tol}%)"
  fi

  # Memory-at-scale gates (docs/PERFORMANCE.md, "Memory at scale"): per-PE
  # heap bytes must stay flat — within 2x — from 256 to 2048 PEs on both
  # kernels within the fresh run (an O(P^2) structure multiplies it by 8x
  # per line), and the 2048-PE numbers must not regress vs the committed
  # BENCH_scaling.json. Bytes, not wall time: allocation counts are
  # machine-independent, so the committed baseline is comparable here.
  run "${bin}/scaling_pe_count" --json="${tmp}/scaling.json" >/dev/null
  for kernel in histogram triangle; do
    small=$(alloc_bytes_per_pe "${tmp}/scaling.json" "${kernel}_256")
    big=$(alloc_bytes_per_pe "${tmp}/scaling.json" "${kernel}_2048")
    if [[ -z "${small}" || -z "${big}" ]]; then
      echo "bench --check: missing alloc_bytes_per_pe for '${kernel}'" >&2
      exit 1
    fi
    if awk -v b="${big}" -v s="${small}" 'BEGIN { exit !(b > 2 * s) }'; then
      echo "REGRESSION ${kernel} scaling: ${big} B/PE at 2048 PEs vs ${small} at 256 (gate: <= 2x)"
      fail=1
    else
      echo "ok ${kernel} scaling: ${big} B/PE at 2048 PEs vs ${small} at 256 (gate: <= 2x)"
    fi
    old=$(alloc_bytes_per_pe BENCH_scaling.json "${kernel}_2048")
    if [[ -z "${old}" ]]; then
      echo "bench --check: missing ${kernel}_2048 baseline in BENCH_scaling.json" >&2
      exit 1
    fi
    if awk -v n="${big}" -v o="${old}" -v t="${tol}" \
         'BEGIN { exit !(n > o * (1 + t / 100)) }'; then
      echo "REGRESSION ${kernel}_2048 bytes: ${big} B/PE vs committed ${old} (> ${tol}% more)"
      fail=1
    else
      echo "ok ${kernel}_2048 bytes: ${big} B/PE vs committed ${old} (tolerance ${tol}%)"
    fi
  done

  # Threads-backend speedup gate. Compared within the fresh run (fiber vs
  # threads on this host), never against the committed BENCH_backend.json
  # (a wall-clock number from a different machine is meaningless here), and
  # scaled to the cores actually present: the threads backend cannot beat
  # the fiber scheduler without parallel hardware. Deliberately NOT run
  # under taskset — pinning to one core is exactly what it must not do.
  cores=$(nproc 2>/dev/null || echo 1)
  if [[ "${cores}" -lt 2 ]]; then
    echo "skip backend speedup: host has ${cores} core(s); threads backend needs >= 2 to show a win"
  else
    if [[ "${cores}" -ge 8 ]]; then want=2.0
    elif [[ "${cores}" -ge 4 ]]; then want=1.6
    else want=1.2; fi
    "${bin}/bench_backend" --json="${tmp}/backend.json"
    fib=$(items_per_sec "${tmp}/backend.json" triangle_fiber)
    thr=$(items_per_sec "${tmp}/backend.json" triangle_threads)
    if [[ -z "${fib}" || -z "${thr}" ]]; then
      echo "bench --check: bench_backend produced no triangle numbers" >&2
      exit 1
    fi
    speedup=$(awk -v f="${fib}" -v t="${thr}" 'BEGIN { printf "%.2f", t / f }')
    if awk -v s="${speedup}" -v w="${want}" 'BEGIN { exit !(s < w) }'; then
      echo "REGRESSION backend speedup: threads ${speedup}x vs fiber on scaling_triangle (gate: >= ${want}x at ${cores} cores)"
      fail=1
    else
      echo "ok backend speedup: threads ${speedup}x vs fiber on scaling_triangle (gate: >= ${want}x at ${cores} cores)"
    fi
  fi

  # Live-publisher overhead gate (docs/OBSERVABILITY.md): streaming into a
  # real loopback daemon must not slow the profiled run by >= 5%. Compared
  # within the fresh run (wall time; the committed BENCH_publish.json is a
  # record, not a cross-machine baseline) and not pinned with taskset —
  # the publisher worker and the daemon are meant to ride other cores.
  "${bin}/bench_publish" --json="${tmp}/publish.json"
  overhead=$(awk '
    match($0, /"overhead_pct": *-?[0-9.eE+-]+/) {
      s = substr($0, RSTART, RLENGTH)
      sub(/.*: */, "", s)
      print s
      exit
    }' "${tmp}/publish.json")
  if [[ -z "${overhead}" ]]; then
    echo "bench --check: bench_publish produced no overhead_pct" >&2
    exit 1
  fi
  if awk -v o="${overhead}" 'BEGIN { exit !(o >= 5) }'; then
    echo "REGRESSION publish overhead: ${overhead}% run slowdown with the publisher on (gate: < 5%)"
    fail=1
  else
    echo "ok publish overhead: ${overhead}% run slowdown with the publisher on (gate: < 5%)"
  fi
  exit "${fail}"
fi

run "${bin}/micro_conveyor" --json="${tmp}/conveyor.json"
run "${bin}/micro_selector" --json="${tmp}/selector.json"
AP_SCALE="${AP_SCALE:-10}" run "${bin}/scaling_triangle" --json="${tmp}/triangle.json"

{
  echo '{'
  echo '  "micro_conveyor":'
  sed 's/^/  /' "${tmp}/conveyor.json" | sed '$ s/$/,/'
  echo '  "micro_selector":'
  sed 's/^/  /' "${tmp}/selector.json" | sed '$ s/$/,/'
  echo '  "scaling_triangle":'
  sed 's/^/  /' "${tmp}/triangle.json"
  echo '}'
} > BENCH_conveyor.json

echo "Wrote BENCH_conveyor.json:"
cat BENCH_conveyor.json

# Trace-format baseline (separate file: separate concern, separate gate).
AP_SCALE="${AP_SCALE:-10}" run "${bin}/bench_trace" --json=BENCH_trace.json
echo "Wrote BENCH_trace.json:"
cat BENCH_trace.json

# PE-count scaling baseline (per-PE allocation at 256/1024/2048 PEs; the
# --check gate compares alloc_bytes_per_pe only — allocation is
# machine-independent, throughput and RSS are informational).
run "${bin}/scaling_pe_count" --json=BENCH_scaling.json >/dev/null
echo "Wrote BENCH_scaling.json:"
cat BENCH_scaling.json

# Execution-backend baseline (fiber vs threads wall time; records the core
# count it was captured on — the speedup is only meaningful relative to
# it). No taskset: the threads backend needs all the cores it can get.
AP_SCALE="${AP_SCALE:-10}" "${bin}/bench_backend" --json=BENCH_backend.json
echo "Wrote BENCH_backend.json:"
cat BENCH_backend.json

# Live-publisher overhead record (wall time on this machine; --check
# gates overhead_pct < 5 within its own fresh run). No taskset, same
# reason as the backend bench.
"${bin}/bench_publish" --json=BENCH_publish.json
echo "Wrote BENCH_publish.json:"
cat BENCH_publish.json
