#!/bin/sh
# Check that two checkouts write byte-identical outputs.
#
# usage: sh scripts/compare_with_base.sh BASE HEAD OUT
#
# Each comparison below writes its inputs to OUT/NAME with HEAD's perfbench,
# runs with BASE's src and then with HEAD's in that same directory (outputs
# record their arguments), moves each side's outputs to OUT/NAME-base and
# OUT/NAME-head, and ends with diff -r. Every comparison runs; the script
# prints the name of each one that differs or fails, and exits 1 if any
# does. Its last line is the line count of each side's src/graphwin/*.py,
# as `src/graphwin lines: base N, head M`. OUT must be empty or absent.
#
#   demo       the README demo tree, built by each side's scripts/demo_pipeline.sh
#   online     online-linkpred seed 7: ingest, evaluate and sweep, and evaluate again with a
#              hyperparams grid (min_tests 1, 2, 4; top_count 1, 2; fixed 10)
#   enron      an Enron-size 1008-step stream over 150 vertices: ingest and six online selectors
#   offline-3  offline-attr-cp seed 3: ingest, evaluate, sweep and analyze
#   offline-7  the same at seed 7
#   select     offline-attr-cp seed 7: select with supervised and every baseline,
#              each baseline both with and without --train-span
#   errors     offline-attr-cp seed 7: the exit code and stderr of an evaluate whose config
#              has every params key out of range and a bad hyperparams grid, of
#              sweep --beta 2 --theta 1 --batch-size 0, and of
#              select --tau -1 --adage-tol 0 --adage-patience 0
set -u
[ $# -eq 3 ] || { echo "usage: sh scripts/compare_with_base.sh BASE HEAD OUT" >&2; exit 2; }
base=$(cd "$1" && pwd) && head=$(cd "$2" && pwd) && mkdir -p "$3" && out=$(cd "$3" && pwd) || exit 2
[ -z "$(ls -A "$out")" ] || { echo "$out is not empty" >&2; exit 2; }
for root in "$base" "$head"; do
  PYTHONPATH="$root/src" python -c "import graphwin, sys; sys.exit(not graphwin.__file__.startswith('$root/src/'))" ||
    { echo "graphwin is not imported from $root/src" >&2; exit 2; }
done

# one side's CLI
gw() { PYTHONPATH="$root/src" python -m graphwin.cli "$@"; }

# py CODE ARG...: run CODE with HEAD's perfbench importable
py() { code=$1; shift; python -c "import sys; sys.path.insert(0, sys.argv.pop(1)); from pathlib import Path; $code" "$head/perfbench" "$@"; }

# inputs, written once into $work
prepare() { py 'import run; run.prepare(run.WORKLOADS[sys.argv[1]], Path(sys.argv[3]), int(sys.argv[2]))' "$1" "$2" "$work"; }
online_inputs() {
  prepare online-linkpred 7 &&
  py 'import json; work = Path(sys.argv[1]); config = json.loads((work / "config-linkpred.json").read_text()); config["output"] = str(work / "grid"); config["hyperparams"] = {"min_tests_values": [1, 2, 4], "top_count_values": [1, 2], "fixed": 10}; (work / "config-grid.json").write_text(json.dumps(config))' "$work"
}
errors_inputs() {
  prepare offline-attr-cp 7 &&
  cat > "$work/config-errors.json" <<EOF
{"archive": "$work/archive", "mode": "online", "task": "linkpred", "selectors": ["online"],
 "output": "$work/report",
 "params": {"beta": 2, "theta": 1, "batch_size": 0, "min_tests": 0.5, "top_count": 0,
            "alpha": 0, "tau": -1, "adage_tol": 0, "adage_patience": 0},
 "hyperparams": {"min_tests_values": [0, "inf"], "top_count_values": "x", "fixed": 0,
                 "selector": "random"}}
EOF
}
enron_inputs() {
  py 'import json, planted; work = sys.argv[1]; planted.write_planted(Path(work), 7, copies=5, steps=1008); print(json.dumps({"archive": f"{work}/archive", "mode": "online", "task": "linkpred", "selectors": ["online", "online-weighted", "training-only", "hand-picked", "random", "adage"], "intervals": 3, "seed": 7, "output": f"{work}/report", "params": {"min_tests": 2, "top_count": 4, "alpha": 0.5}}))' "$work" > "$work/config.json"
}

# one side's run in $work, its outputs moved to $dest
demo() { sh "$root/scripts/demo_pipeline.sh" "$root" "$work" && mv "$work/demo" "$dest"; }
online() {
  gw ingest "$work/stream.csv" --out "$work/archive" --resolution 600 &&
  gw evaluate "$work/config-linkpred.json" && gw evaluate "$work/config-grid.json" &&
  gw sweep "$work/archive" --tasks linkpred --intervals 2 --out "$work/curves.json" &&
  mkdir "$dest" && mv "$work/archive" "$work"/report-linkpred.* "$work"/grid* "$work/curves.json" "$dest"
}
enron() {
  gw ingest "$work/stream.csv" --out "$work/archive" && gw evaluate "$work/config.json" &&
  mkdir "$dest" && mv "$work/archive" "$work/report.json" "$work/report.csv" "$dest"
}
offline() {
  gw ingest "$work/stream.csv" --out "$work/archive" --resolution 1 &&
  gw evaluate "$work/config-attribute.json" && gw evaluate "$work/config-changepoint.json" &&
  gw sweep "$work/archive" --tasks attribute,changepoint --intervals 3 \
    --attributes "$work/attributes.csv" --target community \
    --changepoints "$work/changepoints.txt" --out "$work/curves.json" &&
  gw analyze "$work/curves.json" --out-prefix "$work/analysis" &&
  mkdir "$dest" && mv "$work/archive" "$work"/report-* "$work/curves.json" "$work"/analysis* "$dest"
}
select_all() {
  set -- --test-span 13 24 --seed 7
  train="--train-span 1 12"
  gw ingest "$work/stream.csv" --out "$work/archive" --resolution 1 && mkdir "$work/out" || return
  for task in attribute changepoint; do
    gw select "$work/archive" --selector supervised --task "$task" --attributes "$work/attributes.csv" \
      --target community --changepoints "$work/changepoints.txt" $train "$@" --out "$work/out/supervised-$task.json" || return
  done
  for selector in hand-picked random no-time fourier jaccard entropy adage; do
    gw select "$work/archive" --selector "$selector" $train "$@" --out "$work/out/$selector.json" &&
    gw select "$work/archive" --selector "$selector" "$@" --out "$work/out/$selector-no-train-span.json" || return
  done
  mkdir "$dest" && mv "$work/archive" "$work/out" "$dest"
}

# refused FILE ARG...: one side's CLI exit code and stderr, as $dest/FILE.code and .err
refused() { file=$1; shift; gw "$@" 2> "$dest/$file.err"; echo $? > "$dest/$file.code"; }
errors() {
  gw ingest "$work/stream.csv" --out "$work/archive" --resolution 1 > /dev/null && mkdir "$dest" || return
  refused evaluate evaluate "$work/config-errors.json"
  refused sweep sweep "$work/archive" --tasks linkpred --beta 2 --theta 1 --batch-size 0 \
    --out "$work/curves.json"
  refused select select "$work/archive" --selector jaccard --tau -1 --adage-tol 0 --adage-patience 0
  mv "$work/archive" "$dest"
}

failed=""
# compare NAME RUN [INPUTS...]: write the inputs, run RUN for each side, diff the outputs
compare() {
  name=$1 run=$2 work="$out/$1"
  shift 2
  mkdir "$work" && { [ $# -eq 0 ] || "$@"; } || { echo "$name: writing the inputs failed" >&2; failed="$failed $name"; return; }
  for side in base head; do
    eval "root=\$$side"
    dest="$out/$name-$side"
    "$run" || { echo "$name: the $side side failed" >&2; failed="$failed $name"; return; }
  done
  diff -r "$out/$name-base" "$out/$name-head" || { echo "$name: differs" >&2; failed="$failed $name"; }
}

compare demo demo
compare online online online_inputs
compare enron enron enron_inputs
compare offline-3 offline prepare offline-attr-cp 3
compare offline-7 offline prepare offline-attr-cp 7
compare select select_all prepare offline-attr-cp 7
compare errors errors errors_inputs

status=0
[ -z "$failed" ] || { echo "differs or failed:$failed" >&2; status=1; }
lines() { cat "$1"/src/graphwin/*.py | wc -l | tr -d ' '; }
echo "src/graphwin lines: base $(lines "$base"), head $(lines "$head")"
exit $status
