import importlib.util
from pathlib import Path

import numpy as np

from fedkd import kd

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
