#!/usr/bin/env bash
# Reachability gate (docs/CHECKING.md): every ap:: function the libraries
# under src/ define must be kept by at least one program the repo builds —
# the actorprof CLI, the examples, the bench binaries or perfbench. A
# function that only tests call is library weight no user runs: delete it,
# or move it into tests/. Exceptions live in tools/reach_allowlist.txt, one
# demangled name or name prefix per line, each followed by ` # reason`.
#
#   tools/reach.sh              # build into build-reach/ and scan
#   tools/reach.sh <build-dir>  # the same, in another build directory
#
# Method: the root tree (tests off) and perfbench/ are each built at -O0
# with one section per function and linked with --gc-sections, so every
# executable keeps exactly the functions its main can reach. The ap::
# text symbols defined in <build-dir>/src/*/*.a, minus the union of those
# the executables keep, are the unreached ones. Names are compared
# demangled, so constructor and destructor variants (C1/C2, D0/D1/D2)
# count once, and std:: instantiations over ap types are not ap:: names.
#
# Exits non-zero, naming each one, when an unreached function is not on
# the allowlist, when an allowlist line has no reason, or when an entry
# matches nothing (an exception nobody needs any more).
#
# Header-only code that no library source instantiates never reaches an
# archive, so this scan cannot see it; docs/CHECKING.md describes the
# by-hand -fkeep-inline-functions pass that can.
set -euo pipefail

cd "$(dirname "$0")/.."

build=${1:-build-reach}
allowlist=tools/reach_allowlist.txt
jobs=$(nproc 2>/dev/null || echo 4)
cxx_flags="-O0 -ffunction-sections -fdata-sections"
ld_flags="-Wl,--gc-sections"

echo "==== reach: building ${build} (-O0, --gc-sections) ===="
cmake -S . -B "${build}" -DCMAKE_BUILD_TYPE=Debug \
  -DACTORPROF_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS="${cxx_flags}" \
  -DCMAKE_EXE_LINKER_FLAGS="${ld_flags}" > /dev/null
cmake --build "${build}" -j "${jobs}" > /dev/null
cmake -S perfbench -B "${build}/perfbench" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="${cxx_flags}" -DCMAKE_EXE_LINKER_FLAGS="${ld_flags}" \
  > /dev/null
cmake --build "${build}/perfbench" -j "${jobs}" > /dev/null

work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT

# Text symbols (T t W w) of the ap namespace, demangled. A mangled ap::
# name starts with a nested name whose first component is `2ap`, after any
# cv- and ref-qualifiers of a member function; _ZZ prefixes a local entity
# (a lambda) of such a function. A function template's demangled name
# leads with its return type, which is dropped so every name starts with
# ap:: and an allowlist prefix can match it.
ap_text_symbols() {
  nm --defined-only "$@" 2>/dev/null \
    | awk 'NF == 3 && $2 ~ /^[TtWw]$/ { print $3 }' \
    | grep -E '^_ZZ?N[rVK]*[RO]?2ap' | c++filt \
    | sed -E '/^ap::/!s/^[^(<]* (ap::)/\1/' | sort -u
}

ap_text_symbols "${build}"/src/*/*.a > "${work}/defined"

programs=$(find "${build}" -path '*/CMakeFiles' -prune -o \
  -type f -perm -u+x -print | while read -r f; do
    if head -c 4 "${f}" | grep -q 'ELF'; then echo "${f}"; fi
  done)
n_programs=$(echo "${programs}" | grep -c .)
# shellcheck disable=SC2086  # one path per word
ap_text_symbols ${programs} > "${work}/kept"

comm -23 "${work}/defined" "${work}/kept" > "${work}/unreached"

awk -v allowlist="${allowlist}" '
  BEGIN {
    while ((getline text < allowlist) > 0) {
      ++lineno
      if (text ~ /^[[:space:]]*(#|$)/) continue
      sep = index(text, " # ")
      reason = sep ? substr(text, sep + 3) : ""
      if (reason !~ /[^[:space:]]/) {
        printf "reach: %s:%d has no \" # reason\": %s\n", allowlist, lineno, text
        bad = 1
        continue
      }
      entry = substr(text, 1, sep - 1)
      sub(/[[:space:]]+$/, "", entry)
      prefix[++n] = entry
      line[n] = lineno
    }
  }
  {
    total++
    for (i = 1; i <= n; i++)
      if (index($0, prefix[i]) == 1) { used[i]++; allowed++; next }
    print "reach: unreached and not allowlisted: " $0
    bad = 1
  }
  END {
    for (i = 1; i <= n; i++)
      if (!used[i]) {
        printf "reach: %s:%d matches no unreached function: %s\n",
               allowlist, line[i], prefix[i]
        bad = 1
      }
    printf "reach: %d unreached ap:: functions, %d of them allowlisted " \
           "(%d entries)\n", total, allowed, n
    exit bad
  }
' "${work}/unreached" || {
  echo "reach: FAILED (scanned ${n_programs} programs)" >&2
  exit 1
}
echo "reach: OK (scanned ${n_programs} programs)"
