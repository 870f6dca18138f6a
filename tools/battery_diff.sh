#!/usr/bin/env bash
# Run the output battery on a base commit and on the working tree, and
# compare what they write.
#
#   tools/battery_diff.sh BASE
#
# Unpacks `git archive BASE` into a temporary directory, runs this working
# tree's tools/output_battery.sh on that checkout and on the working tree,
# prints `diff -r` of the two output directories and exits non-zero on any
# difference.  The temporary directory is removed on exit.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 1
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$repo" archive "$1" | tar -x -C "$tmp/base"
"$repo/tools/output_battery.sh" "$tmp/base" "$tmp/battery-base"
"$repo/tools/output_battery.sh" "$repo" "$tmp/battery-tree"
cd "$tmp"
diff -r battery-base battery-tree
