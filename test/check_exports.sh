#!/bin/sh
# Export gate over the values (`val`s) a lib/**/*.mli declares, in two
# passes. Comments are stripped first, the way the OCaml lexer skips
# them: nested, with the strings and character literals inside them
# skipped too, so a word in a comment or a {!doc reference} is no use.
#
# 1. Every value must be named by some OCaml source outside its own
#    module (the .ml/.mli pair) in lib, bin, bench, svcbench, examples
#    or test. A value nothing names is dead.
# 2. Every value, and every ?label optional parameter of one, must be
#    named by a program source outside its own module: lib, bin, bench,
#    svcbench or examples, not test. A test hook that cannot move into
#    test/ is listed in test/exports_allowlist, one
#    `path.mli<TAB>value<TAB>reason` line each (value `name` or
#    `name ?label`; `#` lines are comments). A line whose value is no
#    longer declared, is named by the program, or has no reason fails
#    the gate too.
#
# A word match is enough: the gate errs towards keeping a value, and a
# label counts as passed wherever `~label` or `?label` appears.
#
#   sh test/check_exports.sh        # from the repository root
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
allow=test/exports_allowlist

# Strips comments from each input file, then prints, by `mode`:
#   words  module<TAB>word for every identifier, and module<TAB>?label
#          for every `~label` or `?label`;
#   decls  module<TAB>value and module<TAB>value ?label for every `val`
#          and every optional parameter in its type.
# A module is its path without the .ml/.mli suffix.
cat > "$tmp/scan.awk" <<'EOF'
function strip(s,   out, i, n, c, c2, p) {
  out = ""; n = length(s); i = 1
  while (i <= n) {
    c = substr(s, i, 1); c2 = substr(s, i, 2)
    if (inq) {                          # inside {id|...|id}
      p = index(substr(s, i), "|" qid "}")
      if (p == 0) { if (!depth) out = out substr(s, i); break }
      p += length(qid) + 1
      if (!depth) out = out substr(s, i, p)
      i += p; inq = 0; continue
    }
    if (instr) {                        # inside "..."
      if (c == "\\") { if (!depth) out = out c2; i += 2; continue }
      if (c == "\"") instr = 0
      if (!depth) out = out c
      i++; continue
    }
    if (c2 == "(*") { depth++; i += 2; continue }
    if (depth && c2 == "*)") { depth--; i += 2; if (!depth) out = out " "; continue }
    if (c == "\"") { instr = 1; if (!depth) out = out c; i++; continue }
    if (c == "{" && match(substr(s, i), /^\{[a-z_]*\|/)) {
      inq = 1; qid = substr(s, i + 1, RLENGTH - 2)
      if (!depth) out = out substr(s, i, RLENGTH)
      i += RLENGTH; continue
    }
    if (c == "'" && !(i > 1 && substr(s, i - 1, 1) ~ /[A-Za-z0-9_']/)) {
      # a character literal, so that '"' opens no string
      if (substr(s, i + 1, 1) == "\\") {
        p = index(substr(s, i + 2), "'")
        if (p) { if (!depth) out = out substr(s, i, p + 2); i += p + 2; continue }
      } else if (substr(s, i + 2, 1) == "'") {
        if (!depth) out = out substr(s, i, 3)
        i += 3; continue
      }
    }
    if (!depth) out = out c
    i++
  }
  return out
}
FNR == 1 {
  depth = 0; instr = 0; inq = 0; cur = ""; expect = 0
  m = FILENAME; sub(/\.mli?$/, "", m)
}
{
  line = strip($0)
  gsub(/\(/, " ( ", line)
  gsub(/[^A-Za-z0-9_'~?(]/, " ", line)
  n = split(line, tok, " ")
  for (k = 1; k <= n; k++) {
    t = tok[k]
    if (mode == "words") {
      w = t; sub(/^[~?]+/, "", w)
      if (w == "" || w == "(") continue
      print m "\t" w
      if (t ~ /^[~?]/) print m "\t?" w
    } else if (expect) {
      expect = 0
      cur = (t ~ /^[a-z_][A-Za-z0-9_']*$/) ? t : ""
      if (cur != "") print m "\t" cur
    } else if (t == "val") {
      expect = 1
    } else if (t ~ /^(type|module|end|exception|external|include|open|class)$/) {
      cur = ""
    } else if (cur != "" && t ~ /^\?[a-z_]/) {
      print m "\t" cur " " t
    }
  }
}
EOF

scan() {  # mode dir...
  mode=$1; shift
  find "$@" -type f \( -name '*.ml' -o -name '*.mli' \) | sort |
    xargs awk -v mode="$mode" -f "$tmp/scan.awk"
}
scan words lib bin bench svcbench examples | sort -u > "$tmp/prog"
scan words test | cat - "$tmp/prog" | sort -u > "$tmp/all"
find lib -type f -name '*.mli' | sort |
  xargs awk -v mode=decls -f "$tmp/scan.awk" | sort -u > "$tmp/decls"

# Reads module<TAB>declaration lines (a `value` or `value ?label`) and
# prints path.mli<TAB>declaration for each that no module of the words
# file $1 but its own names.
unnamed() {
  awk -F '\t' '
    NR == FNR { used[$2] = used[$2] " " $1; next }
    {
      key = $2; if (key ~ / /) key = substr(key, index(key, " ") + 1)
      n = split(used[key], ms, " "); other = 0
      for (i = 1; i <= n; i++) if (ms[i] != $1) other = 1
      if (!other) print $1 ".mli\t" $2
    }
  ' "$1" -
}

status=0

# Pass 1: all sources.
grep -v ' ' "$tmp/decls" | unnamed "$tmp/all" > "$tmp/dead"
if [ -s "$tmp/dead" ]; then
  sed 's/\t/: val /' "$tmp/dead"
  echo "check_exports: $(wc -l < "$tmp/dead") exported value(s) named nowhere outside their own module" >&2
  status=1
fi

# Pass 2: program sources, against the allowlist.
unnamed "$tmp/prog" < "$tmp/decls" > "$tmp/testonly"
sed 's/\t/.mli\t/' "$tmp/decls" > "$tmp/declared"
if ! awk -F '\t' '
  FILENAME == ARGV[1] { decl[$1 "\t" $2] = 1; next }
  FILENAME == ARGV[2] { flagged[$1 "\t" $2] = 1; next }
  /^#/ || /^$/ { next }
  NF != 3 || $3 !~ /[^ ]/ {
    printf "%s:%d: want path.mli<TAB>value<TAB>reason\n", FILENAME, FNR
    bad = 1; next
  }
  !(($1 "\t" $2) in decl) {
    printf "%s:%d: %s no longer declares %s\n", FILENAME, FNR, $1, $2
    bad = 1; next
  }
  !(($1 "\t" $2) in flagged) {
    printf "%s:%d: %s %s is named by the program; drop the line\n", FILENAME, FNR, $1, $2
    bad = 1; next
  }
  { listed[$1 "\t" $2] = 1; allowed++ }
  END {
    for (k in flagged) if (!(k in listed)) { sub(/\t/, ": val ", k); print k; bad = 1 }
    if (!bad) print allowed + 0 > "/dev/stderr"
    exit bad
  }
' "$tmp/declared" "$tmp/testonly" "$allow" > "$tmp/program" 2> "$tmp/allowed"; then
  sort "$tmp/program"
  echo "check_exports: program pass: a value or ?label above is named by no program source (lib, bin, bench, svcbench, examples) outside its own module and not in $allow, or a line of $allow is wrong" >&2
  status=1
fi

if [ "$status" = 0 ]; then
  echo "check_exports: OK ($(grep -vc ' ' "$tmp/decls") exported values, all referenced; program pass over them and $(grep -c ' ' "$tmp/decls") optional parameters: $(cat "$tmp/allowed") allowlisted)"
fi
exit "$status"
