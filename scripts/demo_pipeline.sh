#!/bin/sh
# Build the README quick-start demo tree from one checkout.
#
# usage: sh scripts/demo_pipeline.sh ROOT OUT [FLAG...]
#
# Runs the quick-start commands with ROOT's scripts and with ROOT/src first
# on the import path, and writes OUT/demo: the inputs, the archive, the
# three evaluate reports, the ordinal verdicts, the curves, the analysis and
# the markdown report. Each FLAG is passed to evaluate and sweep. Trees
# built from two checkouts, or with two sets of flags, compare with diff -r.
set -eu
root=$(cd "$1" && pwd)
out=$2
shift 2
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
python -c "import graphwin, sys; sys.exit(not graphwin.__file__.startswith('$root/src/'))" || {
  echo "graphwin is not imported from $root/src" >&2
  exit 1
}
mkdir -p "$out"
cd "$out"
python "$root/scripts/make_demo.py" demo
python -m graphwin.cli ingest demo/stream.csv --out demo/archive
for task in linkpred attribute changepoint; do
  python -m graphwin.cli evaluate "demo/config-$task.json" "$@"
done
python "$root/scripts/check_ordinal.py" demo/report-*.json > demo/ordinal.txt
python -m graphwin.cli sweep demo/archive --tasks linkpred,attribute,changepoint \
  --intervals 3 --attributes demo/attributes.csv --target community \
  --changepoints demo/changepoints.txt --batch-size 1 \
  --out demo/curves.json "$@"
python -m graphwin.cli analyze demo/curves.json --out-prefix demo/analysis
python -m graphwin.cli report demo/report-linkpred.json > demo/report.md
