#!/bin/sh
# List the exported values of lib/ that no program code calls.
#
# For every `val` in lib/*/*.mli, print `Module.value` (one a line,
# sorted) unless some .ml file under lib/, bin/, bench/ or examples/,
# other than the module's own implementation, calls it.  A file calls
# `Module.value` when, with comments and string literals stripped, it
# names the qualified path `Module.value` (`Lib.Module.value` too), or
# names the bare `value` while it opens `Module` (`open`, `let open`,
# `Module.( ... )`).  A `module X = Lib.Module` alias makes `X.value`
# count as `Module.value`.  Tests are not callers: a value listed here
# is either uncalled or reached only from test/.  check.sh diffs this
# list against bin/api_test_only.txt: the test hooks, oracles and
# helpers kept on purpose, and the test-only values queued for review.
#
# The match is approximate in one direction only: a name in a file that
# opens the module, or a record field spelled like a value, counts as a
# call, so an uncalled value can be missed; a value that a caller names
# is never listed.
#
# Usage: bin/api_scan.sh
set -eu

cd "$(dirname "$0")/.."

# shellcheck disable=SC2046
awk '
  # Blank out comments (nested, with the strings inside them), string
  # literals ("..." and {id|...|id}) and character literals, carrying
  # the lexer state from one line to the next within a file.
  function strip(s,    out, i, n, c, c2, j) {
    out = ""; n = length(s); i = 1
    while (i <= n) {
      c = substr(s, i, 1); c2 = substr(s, i, 2)
      if (in_str) {
        if (c == "\\") i++
        else if (c == "\"") in_str = 0
        i++; continue
      }
      if (qstr != "") {
        if (substr(s, i, length(qstr)) == qstr) { i += length(qstr); qstr = "" }
        else i++
        continue
      }
      if (depth > 0) {
        if (c2 == "(*") { depth++; i += 2 }
        else if (c2 == "*)") { depth--; i += 2 }
        else { if (c == "\"") in_str = 1; i++ }
        continue
      }
      if (c2 == "(*") { depth = 1; i += 2; out = out " "; continue }
      if (c == "\"") { in_str = 1; i++; out = out " "; continue }
      if (c == "{" && match(substr(s, i + 1), /^[a-z_]*\|/)) {
        qstr = "|" substr(s, i + 1, RLENGTH - 1) "}"
        i += RLENGTH + 1; out = out " "; continue
      }
      if (c == "\047" && substr(out, length(out), 1) !~ /[A-Za-z0-9_]/) {
        if (match(substr(s, i), /^\047[^\\\047]\047/) ||
            match(substr(s, i), /^\047\\([^0-9x]|[0-9][0-9][0-9]|x[0-9A-Fa-f][0-9A-Fa-f])\047/)) {
          i += RLENGTH; out = out " "; continue
        }
      }
      out = out c; i++
    }
    return out
  }

  function last_component(path,    k, parts) {
    k = split(path, parts, ".")
    return parts[k]
  }

  FNR == 1 {
    depth = 0; in_str = 0; qstr = ""
    n = split(FILENAME, parts, "/")
    base = parts[n]
    is_mli = (base ~ /\.mli$/)
    if (is_mli) {
      stem = substr(base, 1, length(base) - 4)
      modname = toupper(substr(stem, 1, 1)) substr(stem, 2)
      own_ml = substr(FILENAME, 1, length(FILENAME) - 1)
      own_of[modname] = own_ml
      nsub = 0
    }
  }

  is_mli {
    line = strip($0)
    if (match(line, /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*sig/)) {
      sub(/^[ \t]*module[ \t]+/, "", line)
      sub(/[ \t]*:.*$/, "", line)
      sub_name[++nsub] = line
      own_of[line] = own_ml
    } else if (nsub > 0 && line ~ /^[ \t]*end([ \t]|$)/) {
      nsub--
    } else if (match(line, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_]*/)) {
      name = substr(line, RSTART, RLENGTH)
      sub(/^[ \t]*val[ \t]+/, "", name)
      nvals++
      val_mod[nvals] = (nsub > 0) ? sub_name[nsub] : modname
      val_path[nvals] = (nsub > 0) ? modname "." sub_name[nsub] : modname
      val_name[nvals] = name
    }
    next
  }

  {
    line = strip($0)
    # Aliases: module X = Lib.Module (not a struct or a functor application).
    if (match(line, /module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*[ \t]*$/) ||
        match(line, /module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*[ \t]+(in|;;)/)) {
      decl = substr(line, RSTART, RLENGTH)
      sub(/^module[ \t]+/, "", decl)
      alias = decl; sub(/[ \t]*=.*$/, "", alias)
      target = decl; sub(/^[^=]*=[ \t]*/, "", target); sub(/[ \t].*$/, "", target)
      aliased[FILENAME, alias] = last_component(target)
    }
    # Opens: open Path, open! Path, let open Path, Path.( ... ).
    rest = line
    while (match(rest, /open!?[ \t]+[A-Z][A-Za-z0-9_.]*/)) {
      path = substr(rest, RSTART, RLENGTH); sub(/^open!?[ \t]+/, "", path)
      note_open(FILENAME, path)
      rest = substr(rest, RSTART + RLENGTH)
    }
    rest = line
    while (match(rest, /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.\(/)) {
      path = substr(rest, RSTART, RLENGTH - 2)
      note_open(FILENAME, path)
      rest = substr(rest, RSTART + RLENGTH)
    }
    # Qualified values: Lib.Module.value counts for Module.
    rest = line
    while (match(rest, /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[a-z_][A-Za-z0-9_\047]*/)) {
      path = substr(rest, RSTART, RLENGTH)
      k = split(path, parts, ".")
      m = parts[k - 1]
      if ((FILENAME, m) in aliased) m = aliased[FILENAME, m]
      qual[m, parts[k], FILENAME] = 1
      rest = substr(rest, RSTART + RLENGTH)
    }
    # Bare names, for the modules this file opens.
    gsub(/[^A-Za-z0-9_\047]+/, " ", line)
    k = split(line, toks, " ")
    for (i = 1; i <= k; i++) bare[FILENAME, toks[i]] = 1
    files[FILENAME] = 1
  }

  function note_open(file, path,    m) {
    m = last_component(path)
    if ((file, m) in aliased) m = aliased[file, m]
    opens[file, m] = 1
  }

  END {
    for (i = 1; i <= nvals; i++) {
      m = val_mod[i]; v = val_name[i]; own = own_of[m]
      called = 0
      for (f in files) {
        if (f == own) continue
        if (((m, v, f) in qual) || (((f, m) in opens) && ((f, v) in bare))) { called = 1; break }
      }
      if (!called) print val_path[i] "." v
    }
  }
' lib/*/*.mli $(find lib bin bench examples -name '*.ml' | sort) | LC_ALL=C sort
