#!/usr/bin/env bash
# Write every deterministic CLI output of one source tree into OUT_DIR.
#
# Usage: scripts/byte_identity.sh SRC_DIR OUT_DIR
#
# SRC_DIR is the directory that holds the fedkd package (a tree's src/).
# Run it once on each of two trees; `diff -r OUT_A OUT_B` is then the
# whole byte-identity check: empty output means every qtable.tsv,
# train_summary.json, trials.csv, summary.json, kd-demo metric and
# parameter file is the same byte for byte.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC_DIR OUT_DIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
out=$2
mkdir -p "$out"

fedkd() {
    PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 -m fedkd.cli "$@" >/dev/null
}

for s in 3 11; do
    for e in 3000 20000; do
        fedkd train-q --seed "$s" --episodes "$e" --out "$out/trainq-$s-$e"
    done
done
for s in 11 23; do
    for m in proposed q-only fl-min fl-max; do
        fedkd experiment --method "$m" --seed "$s" --trials 40 --episodes 1500 \
            --out "$out/$m-$s"
    done
    fedkd experiment --method exhaustive --seed "$s" --trials 5 --out "$out/exhaustive-$s"
done
for s in 0 7; do
    fedkd kd-demo --seed "$s" --epochs 600 --out "$out/kd-$s"
done
