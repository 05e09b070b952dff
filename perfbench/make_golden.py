"""Record the kd-demo accuracies that the distill check compares against.

Run from the repository root on the commit whose values are the
reference, with BLAS pinned to one thread as the benchmark runs it:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \
        python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from fedkd.cli import kd_demo

from checks import GOLDEN_KD, ROLES
from workloads import KD_EPOCHS, KD_SEEDS


def main() -> None:
    accuracies = {}
    for seed in range(KD_SEEDS):
        metrics = kd_demo(seed=seed, epochs=KD_EPOCHS)["metrics"]
        accuracies[str(seed)] = {role: metrics[role] for role in ROLES}
    Path(GOLDEN_KD).write_text(json.dumps({"epochs": KD_EPOCHS, "accuracies": accuracies},
                                          indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
