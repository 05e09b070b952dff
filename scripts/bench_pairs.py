#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, written as one record.

Usage:
    python3 scripts/bench_pairs.py --parent TREE --change TREE \
        --workloads cell,fleet,distill --seconds 30 \
        --seeds 101,102,... --out BENCH_<label>.json

TREE is the root of a checkout (it holds perfbench/ and src/).  Pair k
runs `python3 perfbench/run.py --workload W --seed SEEDS[k] --seconds S
--trace 0` in both trees, the parent first on even k and the change first
on odd k, with PYTHONDONTWRITEBYTECODE=1.  Use seeds that were not used
while the change was written.  A tree that holds a __pycache__ under
src/ is refused before any run: its imports would read compiled bytecode
and favour its setup_s and peak_rss_mb, so use fresh `git archive`
copies.

The record holds, per workload, every pair's wall_s, setup_s, peak_rss_mb,
correct and failed of both sides; each metric's median and quartiles per
side; the change's wins, losses and ties; and whether wall_s meets the
gain rule: the change wins at least 9 of 10 pairs, ties counting for
neither, and the medians differ by more than the parent's interquartile
range.  Both trees' source digests (perfbench's fedkd_source_sha256) are
recorded.  No trace or output is kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")    # all lower-is-better


def source_digest(tree: Path) -> str:
    """sha256 of the tree's fedkd sources, as perfbench/bench.py computes it."""
    h = hashlib.sha256()
    for f in sorted((tree / "src" / "fedkd").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    row = {name: result["metrics"][name]["value"] for name in METRICS}
    row.update(correct=result["correct"], failed=result["failed"],
               attempted=result["attempted"])
    return row


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        ps, cs = spread(parent), spread(change)
        out[name] = {"parent": ps, "change": cs, "change_wins": wins,
                     "change_losses": losses, "ties": len(pairs) - wins - losses,
                     "median_ratio": cs["median"] / ps["median"]}
    wall = out["wall_s"]
    wall["gain_rule_met"] = (10 * wall["change_wins"] >= 9 * len(pairs)
                             and wall["parent"]["median"] - wall["change"]["median"]
                             > wall["parent"]["q3"] - wall["parent"]["q1"])
    out["all_correct"] = all(p[side]["correct"] and p[side]["failed"] == 0
                             for p in pairs for side in ("parent", "change"))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seeds", required=True, help="comma-separated, one per pair")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cached = [str(d) for t in trees.values() for d in sorted((t / "src").rglob("__pycache__"))]
    if cached:
        print(f"error: compiled bytecode under src/ favours its tree; use fresh copies "
              f"without {', '.join(cached)}", file=sys.stderr)
        return 1

    record = {"protocol": {"command": "python3 perfbench/run.py --workload W --seed SEED "
                                      f"--seconds {args.seconds:g} --trace 0",
                           "pairs": len(seeds), "seeds": seeds,
                           "order": "parent first on even pairs, change first on odd"},
              "source_sha256": {side: source_digest(t) for side, t in trees.items()},
              "workloads": {}}
    for workload in args.workloads.split(","):
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} pair {k} seed {seed}: wall_s parent "
                  f"{pair['parent']['wall_s']:.4f} change {pair['change']['wall_s']:.4f}",
                  flush=True)
        record["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
