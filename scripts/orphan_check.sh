#!/usr/bin/env bash
# "No module without a consumer": fail on any src/<dir>/<name>.h that no
# program file includes.
#
# Consumers are the files under src/, bench/, examples/ and e2ebench/.
# Tests do not count: a module whose only user is its own unit test is
# an orphan. A header's own .cc (src/<dir>/<name>.cc) does not count
# either, and neither does any file of a module already found orphaned,
# so a module used only by orphans is itself an orphan (the check runs
# to a fixpoint).
#
# Usage: scripts/orphan_check.sh    (exit 1 and a list when any orphan is
# found, or when an ALLOWLIST entry is no longer an orphan)
set -euo pipefail

cd "$(dirname "$0")/.."

# Orphans kept on purpose, one per line: "<dir>/<name>.h  <reason>".
ALLOWLIST=(
  "stats/histogram.h  ROADMAP item 4: the home of the decision-latency histograms"
)

allowed=$(printf '%s\n' "${ALLOWLIST[@]}" | awk '{print $1}')

# "<includer> <included>" for every quoted include in a consumer file.
grep -rH --include='*.h' --include='*.cc' --include='*.cpp' --exclude-dir=.bench_build \
    '^#include "[^"]*"' src bench examples e2ebench |
  sed -E 's/^([^:]*):#include "([^"]*)".*/\1 \2/' |
  awk -v allowed="$allowed" '
    { includers[$2] = includers[$2] " " $1 }
    END {
      n = split(allowed, a, "\n")
      for (i = 1; i <= n; ++i) allow[a[i]] = 1
      # Every module header: src/<dir>/<name>.h, named "<dir>/<name>.h".
      cmd = "find src -mindepth 2 -maxdepth 2 -name \"*.h\""
      while ((cmd | getline path) > 0) headers[substr(path, 5)] = 1
      close(cmd)
      # Grow the orphan set until no header loses its last consumer.
      do {
        grew = 0
        for (h in headers) {
          if (h in orphan) continue
          stem = "src/" substr(h, 1, length(h) - 2)
          used = 0
          m = split(includers[h], users, " ")
          for (i = 1; i <= m && !used; ++i) {
            u = users[i]
            if (u == stem ".cc" || u == stem ".h") continue
            if (u ~ /^src\/[^\/]+\/[^\/]+\.(h|cc)$/) {
              mod = substr(u, 5)
              sub(/\.(h|cc)$/, ".h", mod)
              if (mod in orphan) continue
            }
            used = 1
          }
          if (!used) { orphan[h] = 1; grew = 1 }
        }
      } while (grew)
      bad = 0
      for (h in orphan) {
        if (h in allow) {
          print "allowed orphan: " h
        } else {
          print "ORPHAN: src/" h " has no consumer outside its own unit test"
          bad = 1
        }
      }
      # An entry that is no longer an orphan (or no longer exists) is stale.
      for (h in allow) {
        if (!(h in orphan)) {
          print "STALE: allowlist entry " h " is not an orphan; remove it from ALLOWLIST"
          bad = 1
        }
      }
      exit bad
    }' | sort
