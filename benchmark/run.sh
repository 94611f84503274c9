#!/usr/bin/env bash
# A/B benchmark of two source trees (e.g. a parent checkout and a change):
# builds pupil_bench in each, runs K alternating sets of every workload
# (parent first in odd sets, change first in even ones), then compares.
#
#   benchmark/run.sh PARENT_SRC CHANGE_SRC OUT_DIR [K=5] [SEED=42]
#
# OUT_DIR/{parent,change}/run-NN.json hold the results; pick an OUT_DIR
# matching build*/ inside a checkout so git ignores it. One set takes
# about 1.5 minutes per side.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  sed -n '2,10p' "$0"
  exit 2
fi
parent_src=$1
change_src=$2
out=$3
sets=${4:-5}
seed=${5:-42}
here=$(cd "$(dirname "$0")" && pwd)

for side in parent change; do
  src=$parent_src
  [[ $side == change ]] && src=$change_src
  cmake -S "$src/benchmark" -B "$out/build-$side" > /dev/null
  cmake --build "$out/build-$side" -j4 --target pupil_bench > /dev/null
  mkdir -p "$out/$side"
done

for ((i = 1; i <= sets; i++)); do
  order="parent change"
  ((i % 2 == 0)) && order="change parent"
  for side in $order; do
    run=$(printf 'run-%02d' "$i")
    echo "set $i/$sets: $side" >&2
    "$out/build-$side/pupil_bench" --workload all --seed "$seed" \
      --out "$out/$side/$run.json" > "$out/$side/$run.txt" ||
      echo "  $side set $i reported a failed check (see $run.txt)" >&2
  done
done

python3 "$here/compare.py" "$out/parent" "$out/change"
