#!/usr/bin/env bash
# same_results.sh PARENT_RESULTS THIS_RESULTS — every CSV the parent commit's
# experiments wrote must be written again, byte for byte.  The experiments
# are deterministic (counters of a simulated machine and closed-form model
# values), so any difference is a change of behaviour or of the model.
# CSVs only this commit writes (a new experiment) have nothing to compare to.
#
# The one way out is changed_csv_rows.txt beside this script: a row listed
# there, verbatim as the parent writes it, is compared to nothing — and the
# row this commit writes on that line must then actually differ, so the list
# cannot quietly excuse a row that did not change.
set -euo pipefail
parent=$1
this=$2
list="$(dirname "$0")/changed_csv_rows.txt"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

drop_lines() { # drop_lines NUMBERS FILE — FILE without the listed line numbers
  awk -v numbers="$1" 'BEGIN { while ((getline n < numbers) > 0) skip[n] }
                       !(FNR in skip)' "$2"
}

status=0
for pf in "$parent"/*.csv; do
  name=$(basename "$pf")
  tf="$this/$name"
  if [ ! -f "$tf" ]; then
    echo "$name: written at the parent commit, missing here" >&2
    status=1
    continue
  fi
  # Line numbers of the parent's rows that are listed for this file.
  awk -F'\t' -v name="$name" -v list="$list" '
    BEGIN { while ((getline entry < list) > 0) {
              split(entry, f, "\t"); if (f[1] == name) listed[f[2]] } }
    $0 in listed { print FNR }' "$pf" > "$tmp/excused"
  drop_lines "$tmp/excused" "$pf" > "$tmp/parent-kept"
  drop_lines "$tmp/excused" "$tf" > "$tmp/this-kept"
  diff -u --label "parent/$name" --label "this/$name" \
    "$tmp/parent-kept" "$tmp/this-kept" || status=1
  while read -r n; do
    if [ "$(sed -n "${n}p" "$pf")" = "$(sed -n "${n}p" "$tf")" ]; then
      echo "changed_csv_rows.txt lists $name line $n, but the row is the parent's" >&2
      status=1
    else
      echo "excused (listed in changed_csv_rows.txt): $name line $n" >&2
    fi
  done < "$tmp/excused"
done
exit $status
