#!/bin/sh
# List the exported values of lib/ that no program code calls.
#
# For every `val` in lib/*/*.mli whose bare name appears in no .ml file
# under lib/, bin/, bench/ or examples/ other than its own module's
# implementation, print `Module.value`, one a line, sorted.  Tests are not
# callers: a value listed here is either uncalled or reached only from
# test/.  check.sh diffs this list against bin/api_test_only.txt: the
# test hooks, oracles and helpers kept on purpose, and the test-only
# values still queued for deletion.
#
# The match is on bare names, so it is approximate in one direction only:
# a value that shares a common name (`run`, `create`) with something
# called elsewhere is missed, but a value that some caller names is never
# listed.
#
# Usage: bin/api_scan.sh
set -eu

cd "$(dirname "$0")/.."

# shellcheck disable=SC2046
awk '
  FNR == 1 {
    n = split(FILENAME, parts, "/")
    base = parts[n]
    is_mli = (base ~ /\.mli$/)
    if (is_mli) {
      stem = substr(base, 1, length(base) - 4)
      modname = toupper(substr(stem, 1, 1)) substr(stem, 2)
      own_ml = substr(FILENAME, 1, length(FILENAME) - 1)
    }
  }
  is_mli {
    if (match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_]*/)) {
      name = substr($0, RSTART, RLENGTH)
      sub(/^[ \t]*val[ \t]+/, "", name)
      nvals++
      val_mod[nvals] = modname
      val_name[nvals] = name
      val_own[nvals] = own_ml
    }
    next
  }
  {
    line = $0
    gsub(/[^A-Za-z0-9_]+/, " ", line)
    k = split(line, toks, " ")
    for (i = 1; i <= k; i++) {
      t = toks[i]
      if (!((t, FILENAME) in seen)) {
        seen[t, FILENAME] = 1
        files_naming[t]++
      }
    }
  }
  END {
    for (i = 1; i <= nvals; i++) {
      v = val_name[i]
      callers = files_naming[v] - (((v, val_own[i]) in seen) ? 1 : 0)
      if (callers == 0) print val_mod[i] "." v
    }
  }
' lib/*/*.mli $(find lib bin bench examples -name '*.ml' | sort) | LC_ALL=C sort
