#!/bin/sh
# Two passes over every lib/**/*.mli; either one failing fails the
# script.
#
# 1. Exports. Fails when a top-level value declared in a .mli has no
#    whole-word reference in any .ml file under lib/, bin/, bench/,
#    test/ or examples/ other than its own module's .ml: an export
#    without a caller outside its module. Such a value is deleted, or
#    un-exported when its own module still uses it.
# 2. Optional arguments. Fails when a "?label:" in the type of a val
#    (nested ones included) has no "~label" or "?label" at a call of
#    that val in any .ml under the same directories other than its own
#    module's .ml: a knob that no caller sets. Such an argument is
#    deleted and its default used as a constant. A call is the rest of
#    the line that names the val plus the lines after it indented
#    deeper; a label applied through a first-class function or a local
#    alias is not seen, so such an argument needs an exemption.
#
# Exemptions live in ci/unused-exports.allow, one per line as
# "Module.value  reason" (pass 1) or "Module.value?label  reason"
# (pass 2); blank lines and lines starting with # are ignored.
#
# Usage, from anywhere in the checkout: sh ci/unused-exports.sh
set -u
cd "$(dirname "$0")/.."
allow=ci/unused-exports.allow
status=0
for mli in $(find lib -name '*.mli' | LC_ALL=C sort); do
  ml=${mli%i}
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | cut -c1 | tr 'a-z' 'A-Z')$(printf '%s' "$base" | cut -c2-)
  for v in $(sed -n "s/^val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli"); do
    if grep -q "^$mod\.$v[[:space:]]" "$allow"; then
      continue
    fi
    if ! find lib bin bench test examples -name '*.ml' ! -path "$ml" \
      -exec grep -lw -- "$v" {} + | grep -q .; then
      echo "$mli: val $v has no caller outside $ml ($mod.$v)"
      status=1
    fi
  done
  # A val's type runs from its "val" line to the first blank line,
  # comment or next item; comments inside it are stripped.
  pairs=$(awk '
    /^[ \t]*(val|type|module|end|exception|external|include|and|open)([ \t]|$)/ \
      || /^[ \t]*$/ || /^[ \t]*\(\*/ { v = "" }
    /^[ \t]*val [a-z_]/ { v = $2; sub(/:.*/, "", v) }
    v != "" {
      line = $0
      gsub(/\(\*[^*]*\*\)/, "", line)
      while (match(line, /\?[a-z_][A-Za-z0-9_'"'"']*:/)) {
        print v "?" substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
      }
    }' "$mli")
  for p in $pairs; do
    v=${p%%\?*}
    l=${p#*\?}
    if grep -q "^$mod\.$v?$l[[:space:]]" "$allow"; then
      continue
    fi
    files=$(find lib bin bench test examples -name '*.ml' ! -path "$ml" \
      -exec grep -lw -- "$v" {} +)
    # A call is the rest of the line that names the val plus the
    # lines after it that are indented deeper.
    if [ -z "$files" ] || ! awk -v v="$v" -v l="$l" '
      function indent(s) { match(s, /^[ \t]*/); return RLENGTH }
      BEGIN {
        vre = "(^|[^A-Za-z0-9_.])([A-Z][A-Za-z0-9_]*[.])*" v "([^A-Za-z0-9_]|$)"
        lre = "[~?]" l "([^A-Za-z0-9_]|$)"
      }
      FNR == 1 { base = -1 }
      base >= 0 {
        if ($0 ~ /^[ \t]*$/ || indent($0) <= base) base = -1
        else if ($0 ~ lre) { found = 1; exit }
      }
      match($0, vre) {
        base = indent($0)
        if (substr($0, RSTART + RLENGTH - 1) ~ lre) { found = 1; exit }
      }
      END { exit !found }' $files; then
      echo "$mli: val $v has ?$l, which no caller outside $ml sets ($mod.$v?$l)"
      status=1
    fi
  done
done
exit $status
