#!/bin/sh
# The workspace's non-test size — the needle of ROADMAP aim 2.
#
# One row per crates/*/src/**/*.rs: the number of lines before the first
# column-0 `#[cfg(test)]` (the whole file when it has none), then the
# total. The output is checked in as LOC.txt and CI diffs the two, so a
# PR's effect on code size is part of its reviewed diff. Regenerate with
#
#     scripts/loc.sh > LOC.txt
set -eu
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    function emit() { printf "%6d  %s\n", n, file; total += n }
    FNR == 1 { if (file != "") emit(); file = FILENAME; n = 0; tests = 0 }
    /^#\[cfg\(test\)\]/ { tests = 1 }
    !tests { n++ }
    END { if (file != "") emit(); printf "%6d  total\n", total }'
