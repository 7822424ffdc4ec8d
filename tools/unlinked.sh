#!/usr/bin/env bash
# Lists the library functions that no production binary links.
#
#   tools/unlinked.sh
#
# Builds src/, every bench, every example and perfbench (its own CMake
# project, configured from perfbench/) under build-unlinked/ at -O0 with
# one section per function, linked with --gc-sections, so each binary
# keeps exactly the functions it can reach. Then prints every strong
# text symbol (nm type T) of the libkg_*.a libraries that no binary
# keeps and tools/unlinked.allow does not name, one demangled name per
# line.
#
# Exits 1 when that list is not empty, and also when an allowlist entry
# is stale: its function is no longer exported, or a binary now links
# it. Test binaries are never built: a test is not a production caller,
# and perfbench_test is a test.
#
# Known limits:
# - -O0 is required. At -O2 a caller that inlines a library function
#   drops its symbol, and the function reads as unlinked.
# - Only out-of-line functions are seen. Header templates and inline
#   functions are not T symbols of any library, so the check cannot
#   tell whether anything calls them.
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allow="$root/tools/unlinked.allow"
out="$root/build-unlinked"
jobs="$(nproc)"

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$root" -B "$out/kgraph" -G "Unix Makefiles" "${flags[@]}" >/dev/null
make -s -C "$out/kgraph/bench" -j "$jobs" >/dev/null
make -s -C "$out/kgraph/examples" -j "$jobs" >/dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" -G "Unix Makefiles" \
  "${flags[@]}" >/dev/null
make -s -C "$out/perfbench" -j "$jobs" perfbench >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

libs=("$out"/kgraph/src/*/libkg_*.a)
bins=()
for b in "$out"/kgraph/bench/bench_* "$out"/kgraph/examples/* \
         "$out/perfbench/perfbench"; do
  [[ -f $b && -x $b ]] && bins+=("$b")
done

# Names are compared demangled, so a constructor or destructor counts
# as linked when a binary keeps any of its variants.
nm --defined-only "${libs[@]}" 2>/dev/null |
  awk '$2 == "T" { print $3 }' | c++filt | sort -u >"$work/exported"
for b in "${bins[@]}"; do nm --defined-only "$b"; done |
  awk '$2 ~ /^[TtWw]$/ { print $3 }' | c++filt | sort -u >"$work/linked"
comm -23 "$work/exported" "$work/linked" >"$work/unlinked"
comm -12 "$work/exported" "$work/linked" >"$work/kept"

# An allowlist line is "<demangled name>  # <reason>"; blank lines and
# lines starting with '#' are comments.
grep -v '^[[:space:]]*\(#\|$\)' "$allow" >"$work/lines" || true
sed 's/  # .*//' "$work/lines" | sort -u >"$work/entries"
{
  grep -v '  # .' "$work/lines" | sed 's/^/entry without a reason: /'
  comm -23 "$work/entries" "$work/exported" | sed 's/^/stale (not exported): /'
  comm -12 "$work/entries" "$work/kept" | sed 's/^/stale (linked by a binary): /'
} >"$work/stale" || true
cat "$work/stale" >&2

comm -23 "$work/unlinked" "$work/entries" >"$work/report"
cat "$work/report"
echo "unlinked: ${#libs[@]} libraries, $(wc -l <"$work/exported") exported" \
  "functions, ${#bins[@]} binaries; $(wc -l <"$work/unlinked") unlinked," \
  "$(wc -l <"$work/entries") allowlisted, $(wc -l <"$work/report") reported" >&2
[[ ! -s $work/report && ! -s $work/stale ]]
