#!/usr/bin/env bash
# Write every deterministic CLI output of one source tree into OUT_DIR.
#
# Usage: scripts/byte_identity.sh SRC_DIR OUT_DIR
#
# SRC_DIR is the directory that holds the fedkd package (a tree's src/).
# Run it once on each of two trees; `diff -r OUT_A OUT_B` is then the
# whole byte-identity check: empty output means every qtable.tsv,
# train_summary.json, trials.csv, summary.json, allocation.json, kd-demo
# metric and parameter file is the same byte for byte.
#
# Besides the stock template, the script writes OUT_DIR/custom.json: three
# users with unequal transmit powers, a two-model subset of the stock
# catalog, and a zero bandwidth price (delta_b = 0), so the bandwidth
# budget binds on every decision.  train-q, the four learning methods and
# exhaustive run on it too, and one experiment uses the iid accuracies.
# Its decision block (users 0 and 2 train locally) is the decision of one
# `fedkd allocate` run (custom-allocate); OUT_DIR/decision.json gives the
# stock template one (every model once, users 1 and 3 local) for another
# (stock-allocate), at the stock bandwidth price delta_b = 0.001.
# One q-only run on it trains for 8000 episodes: its greedy phase then
# mostly picks actions within both budgets, which the other runs, at 1500
# episodes, seldom reach.
#
# OUT_DIR/seven.json is the stock template with seven users: 8^7 joint
# actions, above qlearn.EXHAUSTIVE_CAP, so its train-q run scores actions
# one episode at a time instead of from the enumerated reward vector.
# The stock template has 4096 actions: its 20000-episode train-q runs
# train on the vector, its 3000-episode runs one episode at a time.
#
# OUT_DIR/clamped.json is the stock template with its last user at
# f_loc = 2.5 GHz and d = 150 m, outside the stock state ranges (f_loc in
# [0.5, 2.0], d in [10, 100] m): its train-q run takes the quantizer's
# clamping route, which logs a warning to stderr.
#
# OUT_DIR/negative.json is the stock template with both accuracy weights
# at 0, so every reward is negative and an unexplored action, which reads
# 0, beats every stored one: its 20000-episode train-q run stores new
# actions on greedy steps until all 4096 are stored.
#
# OUT_DIR/channel.json is the stock template with g0 = 1e-3, ten times the
# stock reference gain, with one train-q run (channel-trainq) and one
# proposed experiment (channel-proposed) on it.  The state quantizer bins
# the log10 gain over the gains at the two ends of QConfig.d_range on the
# template's channel.  A tree that still bins it over the fixed range
# (-9.6, -6.8) of the stock channel puts every gain above -6.8 in the top
# bin and logs a clamp warning, so these two directories are expected to
# differ from its output; every other directory matches it.
#
# OUT_DIR/three.json is the stock users with a three-model subset of the
# stock catalog: 6^4 = 1296 joint actions.  Every other action count here
# is a power of two, for which numpy's bounded integer draw (Lemire's
# method) has rejection threshold 0; at 1296 it is
# (2^32 - 1296) % 1296 = 1264, so about one draw in 3.4 million is
# redrawn (tests/test_qlearn.py covers redraws).  It has one 20000-episode
# train-q run (three-trainq) and proposed, q-only, fl-min and exhaustive
# experiments (three-<method>).  q-only's radix there is 6 * 8 * 8 = 384
# per user, where every other q-only run's is 512 or 256.
#
# OUT_DIR/nine.json is the four stock users repeated, the ninth again the
# first: 9 users, where numpy's mean over a trial's users adds pairwise
# instead of left to right (it does from 8 values on).  proposed, fl-min
# and fl-max experiments run on it (20 trials, 500 episodes each), so the
# trial rows' avg_delay_s, acc_own and acc_avg means and the optimal
# splits of 9 users are compared too.  exhaustive and q-only are left
# out: 8^9 joint actions exceed qlearn.EXHAUSTIVE_CAP, and q-only's grid
# has fewer levels than users.
#
# OUT_DIR/weak.json is two users, the second with p = 1e-21 W: its
# spectral efficiency rounds to 0 beyond about 26 m, at its own 50 m and
# over most of QConfig.d_range.  It has one train-q run (weak-trainq) and
# proposed experiments at 1 and 2 trials (weak-proposed-1, weak-proposed-2).
# Each of these directories also holds the run's exit code (exit.txt) and
# stderr (stderr.txt): a tree that refuses such a user writes only those
# two files, exit code 1 and a message naming user 1.  A tree that
# penalizes the user instead trains on it, exits 0 at train-q and at one
# trial, and fails at two trials with another message, so like
# channel.json's these directories are expected to differ from its output.
#
# OUT_DIR/dupcatalog is one proposed experiment (5 trials) on a config
# whose catalog names VGG-8 twice, dupcatalog/scenario.json, with the
# run's exit.txt and stderr.txt as for weak.json.  A tree that refuses a
# repeated model name writes only those two files beside the config, exit
# code 1 and a message naming catalog[1].name.  A tree that accepts it
# exits 0, and its summary.json keeps one of the two VGG-8 frequencies,
# so like weak.json's this directory is expected to differ from its
# output.
#
# OUT_DIR/floor-allocate is one `fedkd allocate` run on the stock users
# with b_max = 4e-6 MHz, the least a Scenario of four users accepts
# (4 x model.RESOURCE_FLOOR), and every user training locally with every
# model once; its config is floor-allocate/scenario.json.  A tree that
# lifts each share to RESOURCE_FLOOR after the closed form splits that
# budget as about [1e-6, 1e-6, 1e-6, 1.467e-6], over the budget, where
# the closed form's shares sum to 4e-6, so like channel.json's this
# directory is expected to differ from its output.
#
# kd runs twice at the stock 600 epochs and once at 50, where the teacher
# still trains for 400 epochs and the students for 50.  Four demos beside
# SRC_DIR write their stdout into OUT_DIR, each to demo-NN-<name>.txt:
# demos/01_channel_and_delays.py (channel_gain, tx_rate, delays and
# objective on the stock template), demos/02_resource_allocation.py
# (allocate, its cross-checks and grid_oracle), demos/03_model_selection_agent.py
# (train_loop and exhaustive_optimum on a 2x2 instance) and
# demos/04_toy_distillation.py (fedsgd_round).  Demo 05 is left out: it
# prints wall times and writes its reports into the working directory.
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
cat > "$out/custom.json" <<'JSON'
{
  "users": [
    {"f_loc": 0.7, "d": 25.0, "p": 0.05},
    {"f_loc": 1.3, "d": 60.0, "p": 0.1},
    {"f_loc": 1.9, "d": 90.0, "p": 0.4}
  ],
  "catalog": [
    {"name": "VGG-8", "mu": 6.83, "theta_s": 150.0},
    {"name": "ResNet-26x4", "mu": 18.96, "theta_s": 186.0}
  ],
  "weights": {"alpha_d": 0.01, "beta_c": 0.001, "delta_b": 0.0,
              "eta_o": 1.0, "eta_a": 0.25},
  "decision": {"x": [1, 0, 1], "m": [0, 1, 1]}
}
JSON
custom=(--config "$out/custom.json")
fedkd allocate "${custom[@]}" --out "$out/custom-allocate"
cat > "$out/decision.json" <<'JSON'
{"decision": {"x": [0, 1, 0, 1], "m": [0, 1, 2, 3]}}
JSON
fedkd allocate --config "$out/decision.json" --out "$out/stock-allocate"
mkdir -p "$out/floor-allocate"
cat > "$out/floor-allocate/scenario.json" <<'JSON'
{"server": {"b_max": 4e-6}, "decision": {"x": [1, 1, 1, 1], "m": [0, 1, 2, 3]}}
JSON
fedkd allocate --config "$out/floor-allocate/scenario.json" --out "$out/floor-allocate"
fedkd train-q "${custom[@]}" --seed 5 --episodes 4000 --out "$out/custom-trainq"
for m in proposed q-only fl-min fl-max; do
    fedkd experiment "${custom[@]}" --method "$m" --seed 17 --trials 40 --episodes 1500 \
        --out "$out/custom-$m"
done
fedkd experiment "${custom[@]}" --method q-only --seed 17 --trials 40 --episodes 8000 \
    --out "$out/custom-q-only-8000"
fedkd experiment "${custom[@]}" --method exhaustive --seed 17 --trials 10 \
    --out "$out/custom-exhaustive"
cat > "$out/seven.json" <<'JSON'
{
  "users": [
    {"f_loc": 0.5, "d": 10.0}, {"f_loc": 0.75, "d": 25.0}, {"f_loc": 1.0, "d": 40.0},
    {"f_loc": 1.25, "d": 55.0}, {"f_loc": 1.5, "d": 70.0}, {"f_loc": 1.75, "d": 85.0},
    {"f_loc": 2.0, "d": 100.0}
  ]
}
JSON
fedkd train-q --config "$out/seven.json" --seed 13 --episodes 400 --out "$out/seven-trainq"
cat > "$out/clamped.json" <<'JSON'
{
  "users": [
    {"f_loc": 0.5, "d": 10.0}, {"f_loc": 1.0, "d": 40.0}, {"f_loc": 1.5, "d": 70.0},
    {"f_loc": 2.5, "d": 150.0}
  ]
}
JSON
fedkd train-q --config "$out/clamped.json" --seed 19 --episodes 3000 --out "$out/clamped-trainq"
cat > "$out/negative.json" <<'JSON'
{"weights": {"eta_o": 0, "eta_a": 0}}
JSON
fedkd train-q --config "$out/negative.json" --seed 37 --episodes 20000 \
    --out "$out/negative-trainq"
cat > "$out/channel.json" <<'JSON'
{"channel": {"g0": 1e-3}}
JSON
fedkd train-q --config "$out/channel.json" --seed 31 --episodes 3000 --out "$out/channel-trainq"
fedkd experiment --config "$out/channel.json" --method proposed --seed 31 --trials 40 \
    --episodes 1500 --out "$out/channel-proposed"
cat > "$out/three.json" <<'JSON'
{
  "catalog": [
    {"name": "VGG-8", "mu": 6.83, "theta_s": 150.0},
    {"name": "ResNet-14x4", "mu": 12.27, "theta_s": 88.0},
    {"name": "ResNet-26x4", "mu": 18.96, "theta_s": 186.0}
  ]
}
JSON
fedkd train-q --config "$out/three.json" --seed 41 --episodes 20000 --out "$out/three-trainq"
for m in proposed q-only fl-min; do
    fedkd experiment --config "$out/three.json" --method "$m" --seed 41 --trials 40 \
        --episodes 1500 --out "$out/three-$m"
done
fedkd experiment --config "$out/three.json" --method exhaustive --seed 41 --trials 10 \
    --out "$out/three-exhaustive"
fedkd experiment --method proposed --distribution iid --seed 29 --trials 40 \
    --episodes 1500 --out "$out/iid-proposed"
cat > "$out/nine.json" <<'JSON'
{
  "users": [
    {"f_loc": 0.5, "d": 10.0}, {"f_loc": 1.0, "d": 40.0}, {"f_loc": 1.5, "d": 70.0},
    {"f_loc": 2.0, "d": 100.0}, {"f_loc": 0.5, "d": 10.0}, {"f_loc": 1.0, "d": 40.0},
    {"f_loc": 1.5, "d": 70.0}, {"f_loc": 2.0, "d": 100.0}, {"f_loc": 0.5, "d": 10.0}
  ]
}
JSON
for m in proposed fl-min fl-max; do
    fedkd experiment --config "$out/nine.json" --method "$m" --seed 43 --trials 20 \
        --episodes 500 --out "$out/nine-$m"
done
cat > "$out/weak.json" <<'JSON'
{"users": [{"f_loc": 1.0, "d": 20.0}, {"f_loc": 1.0, "d": 50.0, "p": 1e-21}]}
JSON
# A run that may fail: its exit code and stderr go into its --out directory.
fedkd_status() {
    local dir=$1 status=0
    shift
    fedkd "$@" --out "$dir" 2> "$out/stderr.tmp" || status=$?
    mkdir -p "$dir"
    mv "$out/stderr.tmp" "$dir/stderr.txt"
    echo "$status" > "$dir/exit.txt"
}
weak=(--config "$out/weak.json" --episodes 200)
fedkd_status "$out/weak-trainq" train-q "${weak[@]}"
for t in 1 2; do
    fedkd_status "$out/weak-proposed-$t" experiment "${weak[@]}" --method proposed --trials "$t"
done
mkdir -p "$out/dupcatalog"
cat > "$out/dupcatalog/scenario.json" <<'JSON'
{
  "catalog": [
    {"name": "VGG-8", "mu": 6.83, "theta_s": 150.0},
    {"name": "VGG-8", "mu": 18.96, "theta_s": 186.0}
  ]
}
JSON
fedkd_status "$out/dupcatalog" experiment --config "$out/dupcatalog/scenario.json" \
    --method proposed --seed 47 --trials 5 --episodes 200
for s in 0 7; do
    fedkd kd-demo --seed "$s" --epochs 600 --out "$out/kd-$s"
done
fedkd kd-demo --seed 3 --epochs 50 --out "$out/kd-3-epochs50"
demo() {
    PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 "$src/../demos/$1.py"
}

demo 01_channel_and_delays > "$out/demo-01-channel-and-delays.txt"
demo 02_resource_allocation > "$out/demo-02-resource-allocation.txt"
demo 03_model_selection_agent > "$out/demo-03-model-selection-agent.txt"
demo 04_toy_distillation > "$out/demo-04-toy-distillation.txt"
