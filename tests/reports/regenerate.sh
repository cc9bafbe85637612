#!/bin/sh
# Rewrites the committed report text under tests/reports: the stdout of each
# subcommand listed in tests/reports/commands on the bundled price fixture,
# each as table, CSV and JSON, each run in a fresh `python -m citeweight`
# process from this checkout's src.  Each line of that file is a file stem
# and the subcommand's arguments; tests/test_report_text.py checks the same
# list.  Run it from any directory when a change to the output is intended,
# and commit the files with the change, so the moved digits show in review.
set -e
cd "$(dirname "$0")/../.."

while read -r name args; do
  for fmt in table csv json; do
    PYTHONPATH=src python -m citeweight $args --fixture price --format $fmt \
      > tests/reports/$name.$fmt
  done
done < tests/reports/commands
