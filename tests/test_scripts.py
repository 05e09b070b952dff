import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from fedkd import cli, kd

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
class A:
    """Class docstring."""

    x = (1,
         2)

    def f(self):
        """Function docstring."""
        s = """a string that is
        not a docstring"""
        return s
'''
    # import, class, x = (1, / 2), def, s = """ / its second line, return
    assert load("code_lines").code_lines(source) == 8


def test_code_lines_prints_every_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n', encoding="utf-8")
    assert load("code_lines").main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "wc", "-l", "code"], ["a.py", "3", "1"], ["b.py", "3", "2"],
                    ["total", "6", "3"]]


def test_kd_steps_times_one_step_of_each_kd_run():
    kd_steps = load("kd_steps")
    runs = kd_steps.kd_runs(kd)
    assert list(runs) == ["teacher FedSGD", "hard student", "kd student", "simkd student"]
    for run in runs.values():
        assert np.isfinite(kd_steps.step_time(run, (1, 3), 1))


def test_kd_steps_times_kd_demo_beside_its_runs_in_series():
    kd_steps = load("kd_steps")
    demo, series = kd_steps.demo_times(cli, kd_steps.kd_runs(kd), 2, 1)
    assert 0 < demo < float("inf") and 0 < series < float("inf")


def pair(parent_wall, change_wall, parent_failed=0, change_failed=0):
    side = {"setup_s": 0.1, "peak_rss_mb": 40.0, "correct": True}
    return {"parent": {**side, "wall_s": parent_wall, "failed": parent_failed},
            "change": {**side, "wall_s": change_wall, "failed": change_failed}}


@pytest.mark.parametrize("ties, met", [(1, True), (2, False)])
def test_the_gain_rule_needs_nine_wins_in_ten_and_ties_count_for_neither(ties, met):
    parent_walls = [1.0 + k / 100 for k in range(10)]    # interquartile range 0.045
    change_walls = parent_walls[:ties] + [w - 0.2 for w in parent_walls[ties:]]
    wall = load("bench_pairs").summarize(
        [pair(p, c) for p, c in zip(parent_walls, change_walls)])["wall_s"]
    assert (wall["change_wins"], wall["ties"]) == (10 - ties, ties)
    assert wall["parent"]["median"] - wall["change"]["median"] > 0.045
    assert wall["gain_rule_met"] is met


def test_the_gain_rule_needs_a_gap_beyond_the_parents_interquartile_range():
    parent_walls = [1.0 + k / 10 for k in range(10)]     # interquartile range 0.45
    wall = load("bench_pairs").summarize(
        [pair(w, w - 0.01) for w in parent_walls])["wall_s"]
    assert wall["change_wins"] == 10
    assert wall["gain_rule_met"] is False


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_failed_operation_on_either_side_makes_the_record_not_all_correct(side):
    summarize = load("bench_pairs").summarize
    pairs = [pair(1.0, 0.5) for _ in range(10)]
    assert summarize(pairs)["all_correct"] is True
    pairs[3] = pair(1.0, 0.5, **{f"{side}_failed": 1})
    assert summarize(pairs)["all_correct"] is False


@pytest.mark.parametrize("cached", ["parent", "change"])
def test_bench_pairs_refuses_a_tree_with_compiled_bytecode_before_any_run(tmp_path, capsys,
                                                                          monkeypatch, cached):
    bench_pairs = load("bench_pairs")

    def started(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", started)
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "src" / "fedkd").mkdir(parents=True)
    cache = trees[cached] / "src" / "fedkd" / "__pycache__"
    cache.mkdir()
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--workloads", "distill", "--seeds", "1,2", "--out", str(out)]
    assert bench_pairs.main(argv) != 0
    assert str(cache) in capsys.readouterr().err
    assert not out.exists()


def test_bench_pairs_runs_write_no_bytecode(tmp_path, monkeypatch):
    bench_pairs = load("bench_pairs")
    seen = {}

    def fake_run(cmd, cwd, env, **kwargs):
        seen.update(cwd=cwd, env=env)
        metrics = {name: {"value": 1.0} for name in bench_pairs.METRICS}
        result = {"metrics": metrics, "correct": True, "failed": 0, "attempted": 3}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    row = bench_pairs.run_once(tmp_path, "distill", 1, 30)
    assert seen["cwd"] == tmp_path and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert row["wall_s"] == 1.0 and row["failed"] == 0
