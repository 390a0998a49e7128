#!/bin/sh
# Fails when a top-level value declared in a lib/**/*.mli has no
# whole-word reference in any .ml file under lib/, bin/, bench/, test/
# or examples/ other than its own module's .ml: an export without a
# caller outside its module. Such a value is deleted, or un-exported
# when its own module still uses it.
#
# Exemptions live in ci/unused-exports.allow, one per line as
# "Module.value  reason"; blank lines and lines starting with # are
# ignored.
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
done
exit $status
