#!/bin/sh
# Export gate: lists every value a lib/**/*.mli declares whose name no
# OCaml source outside its own module (the .ml/.mli pair) mentions, and
# exits 1 if there is any. The search covers lib, bin, bench, svcbench,
# examples and test, so a hook that only a test calls counts as used.
# A word match is enough: the gate errs towards keeping a value.
#
#   sh test/check_exports.sh        # from the repository root
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# module<TAB>word, once per distinct pair, for every OCaml source. A
# module is its path without the .ml/.mli suffix.
find lib bin bench svcbench examples test -type f \
     \( -name '*.ml' -o -name '*.mli' \) | sort |
while read -r f; do
  m=${f%.mli}; m=${m%.ml}
  tr -c "A-Za-z0-9_'" '\n' < "$f" | grep -v '^$' | sort -u |
    sed "s|^|$m	|"
done | sort -u > "$tmp/words"

# module<TAB>value for every `val` in a library interface, nested
# signatures included.
find lib -type f -name '*.mli' | sort |
while read -r f; do
  sed -n "s/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$f" |
    sort -u | sed "s|^|${f%.mli}	|"
done > "$tmp/vals"

# A value is unreferenced when every module that names it is its own.
awk -F '\t' '
  NR == FNR { used[$2] = used[$2] " " $1; next }
  {
    n = split(used[$2], ms, " "); other = 0
    for (i = 1; i <= n; i++) if (ms[i] != $1) other = 1
    if (!other) print $1 ".mli: val " $2
  }
' "$tmp/words" "$tmp/vals" > "$tmp/dead"

if [ -s "$tmp/dead" ]; then
  cat "$tmp/dead"
  echo "check_exports: $(wc -l < "$tmp/dead") exported value(s) named nowhere outside their own module" >&2
  exit 1
fi
echo "check_exports: OK ($(wc -l < "$tmp/vals") exported values, all referenced)"
