#!/bin/sh
# Rewrites the committed report text under tests/reports: the stdout of six
# subcommands on the bundled price fixture, each as table, CSV and JSON,
# each run in a fresh `python -m citeweight` process from this checkout's
# src.  Run it from any directory when a change to the output is intended,
# and commit the files with the change, so the moved digits show in review.
set -e
cd "$(dirname "$0")/../.."

while read -r name args; do
  for fmt in table csv json; do
    PYTHONPATH=src python -m citeweight $args --fixture price --format $fmt \
      > tests/reports/$name.$fmt
  done
done <<'EOF'
iw iw
iw-iterations-7 iw --iterations 7
pwr pwr
normalize normalize
power-k3 power -k 3
diagnose diagnose
EOF
