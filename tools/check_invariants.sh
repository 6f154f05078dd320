#!/bin/sh
# check_invariants.sh -- grep-level determinism/robustness gates for the
# C++ tree. The repo's output contract (byte-identical reports at any
# L2L_THREADS, hostile inputs never crash) dies quietly when someone
# reaches for the convenient-but-wrong standard library call, so the
# conventions are enforced mechanically:
#
#   1. no std::stoi/stol/stoll/stoul/stoull/stof/stod/stold
#      (throw on garbage AND on overflow, locale-dependent; use
#      util::parse_int / parse_int64 / parse_double)
#   2. no rand()/srand()/random_device
#      (non-reproducible; use a seeded engine or splitmix64 hashing)
#   3. no wall-clock reads (system_clock, gettimeofday, time(NULL))
#      (timestamps in deterministic-export paths break golden files;
#      steady_clock via util::Budget is the sanctioned timer)
#   4. no range-for over unordered containers
#      (iteration order feeds reports/exports nondeterministically; use
#      std::map/std::set or sort first)
#
# False positives go in check_invariants_allowlist.txt next to this
# script: one literal substring per line ('#' comments); any violation
# line containing one of them is waived.
#
# Usage: tools/check_invariants.sh [repo-root]   (exit 0 clean, 1 dirty)

set -u
root="${1:-.}"
cd "$root" || exit 2
allow="tools/check_invariants_allowlist.txt"

# The scanned set: every C++ source/header we ship, tests included --
# a nondeterministic test is as flaky as a nondeterministic engine.
files=$(find src tools bench tests -type f \( -name '*.cpp' -o -name '*.hpp' \) 2>/dev/null | sort)
[ -n "$files" ] || { echo "check_invariants: no sources found under $root"; exit 2; }

tmp="${TMPDIR:-/tmp}/check_invariants.$$"
trap 'rm -f "$tmp" "$tmp.raw"' EXIT
: > "$tmp.raw"

scan() {
  # scan <rule-name> <extended-regex>
  rule="$1"; pattern="$2"
  # shellcheck disable=SC2086
  grep -nE "$pattern" $files /dev/null 2>/dev/null |
    awk -v rule="$rule" -F: '{ line=$0; sub(/^[^:]*:[^:]*:/, "", line);
      # strip // and /* comments and string literals before judging
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line);
      sub(/\/\/.*/, "", line); sub(/\/\*.*/, "", line);
      if (line ~ pat) printf "%s:%s: [%s] %s\n", $1, $2, rule, line }' \
      pat="$pattern" >> "$tmp.raw"
}

scan_in() {
  # scan_in <rule-name> <extended-regex> <dir-prefix-regex> -- like scan,
  # but only for files whose path matches the prefix. Used for per-engine
  # layout invariants that should not constrain the rest of the tree.
  rule="$1"; pattern="$2"; prefix="$3"
  scoped=$(echo "$files" | grep -E "$prefix")
  [ -n "$scoped" ] || return 0
  # shellcheck disable=SC2086
  grep -nE "$pattern" $scoped /dev/null 2>/dev/null |
    awk -v rule="$rule" -F: '{ line=$0; sub(/^[^:]*:[^:]*:/, "", line);
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line);
      sub(/\/\/.*/, "", line); sub(/\/\*.*/, "", line);
      if (line ~ pat) printf "%s:%s: [%s] %s\n", $1, $2, rule, line }' \
      pat="$pattern" >> "$tmp.raw"
}

scan no-std-stoi   'std::sto(i|l|ll|ul|ull|f|d|ld)[[:space:]]*\('
scan no-libc-rand  '(^|[^_[:alnum:]])s?rand[[:space:]]*\(|std::random_device'
scan no-wall-clock 'system_clock|gettimeofday|[^_[:alnum:]]time[[:space:]]*\([[:space:]]*(NULL|nullptr|0)[[:space:]]*\)'
scan no-unordered-iteration 'for[[:space:]]*\(.*:.*unordered'
# Data-layout invariants for the hot engines (PR 6): clauses live in the
# uint32 arena (sat/types.hpp), never as individually heap-allocated
# objects, and the BDD/SAT lookup structures are the flat open-addressing
# tables from util/flat_map.hpp -- node-per-bucket unordered tables undo
# the cache-locality win the bench trajectory pins down.
scan_in no-heap-clauses    'unique_ptr<[[:space:]]*Clause' '^src/sat/'
scan_in no-unordered-tables 'std::unordered_' '^src/(sat|bdd|esop|sema)/'
# The semantic analyzer (PR 9) feeds byte-identical reports and golden
# metric exports; it gets the full determinism pack scoped explicitly so
# a future relaxation of the global rules cannot silently unpin it.
scan_in sema-no-stoi       'std::sto(i|l|ll|ul|ull|f|d|ld)[[:space:]]*\(' '^src/sema/'
scan_in sema-no-wall-clock 'system_clock|gettimeofday|[^_[:alnum:]]time[[:space:]]*\([[:space:]]*(NULL|nullptr|0)[[:space:]]*\)' '^src/sema/'
# The crash-recovery journal (PR 10) promises byte-identical replay of a
# pre-crash drain: a wall-clock read, a steady_clock timestamp baked into
# a frame, or an unordered-container walk on the write path would make
# the journal disagree with its own replay. The grading service is in
# scope too: its fault-draw hashing and the outcome wire format feed the
# journal's frames. Scoped like the sema pack so the promise survives any
# relaxation of the global rules.
scan_in journal-no-clock 'system_clock|steady_clock|gettimeofday|[^_[:alnum:]]time[[:space:]]*\(' '^src/mooc/(journal|shard_map|grading_service)'
scan_in journal-no-unordered 'std::unordered_' '^src/mooc/(journal|shard_map|grading_service)'
scan_in journal-no-stoi 'std::sto(i|l|ll|ul|ull|f|d|ld)[[:space:]]*\(' '^src/mooc/(journal|shard_map|grading_service)'

# Apply the allowlist (literal substrings, comments stripped).
if [ -f "$allow" ]; then
  grep -v '^[[:space:]]*#' "$allow" | grep -v '^[[:space:]]*$' > "$tmp" || true
  if [ -s "$tmp" ]; then
    grep -vF -f "$tmp" "$tmp.raw" > "$tmp.filtered" || true
    mv "$tmp.filtered" "$tmp.raw"
  fi
fi

if [ -s "$tmp.raw" ]; then
  echo "check_invariants: FAIL -- banned constructs found:"
  sort -u "$tmp.raw"
  echo ""
  echo "Fix the call (util/strings.hpp has the sanctioned parsers, and"
  echo "util/budget.hpp the sanctioned timer), or add a literal substring"
  echo "of the line to $allow with a comment explaining why."
  exit 1
fi
echo "check_invariants: OK ($(echo "$files" | wc -l | tr -d ' ') files scanned)"
exit 0
