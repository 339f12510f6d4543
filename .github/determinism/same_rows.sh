#!/usr/bin/env bash
# same_rows.sh PARENT THIS — every checksum row ("name: hash") the parent
# commit prints must reappear unchanged in this commit's output.  Rows only
# this commit prints (a new workload) have nothing to compare to, and the
# closing summary line counts trace events, which a change is free to move.
#
# The one way out is changed_rows.txt beside this script: a row listed there
# with the hash the parent really prints is dropped from the comparison —
# and must then actually differ, so the list cannot quietly excuse a row
# that did not change.
set -euo pipefail
parent=$1
this=$2
list="$(dirname "$0")/changed_rows.txt"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

grep ': ' "$parent" > "$tmp/parent-rows"
# Names whose listed hash is the one the parent prints: the live exceptions.
awk 'NR == FNR { if ($1 !~ /^#/ && NF >= 3) listed[$1 ": " $2]; next }
     ($1 " " $2) in listed { sub(/:$/, "", $1); print $1 }' \
  "$list" "$tmp/parent-rows" > "$tmp/excused"

awk -F: 'NR == FNR { skip[$1]; next } !($1 in skip)' \
  "$tmp/excused" "$tmp/parent-rows" > "$tmp/parent-kept"
awk -F: 'NR == FNR { want[$1]; next } $1 in want' "$tmp/parent-kept" "$this" |
  diff -u "$tmp/parent-kept" -

status=0
while read -r name; do
  if grep -qxF "$(grep "^$name: " "$tmp/parent-rows")" "$this"; then
    echo "changed_rows.txt lists $name, but its row is the parent's" >&2
    status=1
  else
    echo "excused (listed in changed_rows.txt): $name" >&2
  fi
done < "$tmp/excused"
exit $status
