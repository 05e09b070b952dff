#!/usr/bin/env python3
"""Microseconds per training step of each kd run, on kd-demo's shapes.

Usage:
    python3 scripts/kd_steps.py [SRC_DIR]

SRC_DIR is the directory that holds the fedkd package; it defaults to
src/ beside this script's directory, so one copy of the script can time
two trees.  The runs are kd-demo's at seed 0: the federated teacher, one
FedSGD step over both 120-sample clients per epoch; then the hard, kd and
simkd students, on client 0's 120 samples.

Each run is timed through its public entry point (kd.train_teacher or
kd.distill_student) at EPOCHS[0] and at EPOCHS[1] epochs, best of REPEAT
timings each.  The difference divided by the difference in epochs is the
time of one step, without the run's fixed setup.  The figures are wall
times of this process on this host: compare two trees on one host, one
right after the other.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

EPOCHS = (100, 600)
REPEAT = 5


def kd_runs(kd, seed: int = 0) -> dict:
    """name -> run(epochs) of each training run of kd-demo at seed."""
    spec = kd.BlobSpec(seed=seed)
    train_set, _ = kd.make_train_test(spec, train_per_class=60, test_per_class=60)
    half = spec.num_classes // 2
    parts = kd.split_by_label(train_set, [tuple(range(half)),
                                          tuple(range(half, spec.num_classes))])
    teacher_arch, student_arch = kd.NetArch((32,), 16), kd.NetArch((32,), 8)
    teacher = kd.train_teacher(parts, epochs=400, lr=0.5, arch=teacher_arch, seed=seed)
    private = parts[0]

    def student(loss, lr):
        return lambda epochs: kd.distill_student(teacher, student_arch, private, loss,
                                                 epochs, lr, seed + 1)

    return {
        "teacher FedSGD": lambda epochs: kd.train_teacher(parts, epochs, 0.5, teacher_arch,
                                                          seed),
        "hard student": lambda epochs: kd.train_teacher([private], epochs, 0.5, student_arch,
                                                        seed + 1),
        "kd student": student(kd.LossSpec("kd", temperature=4.0), 0.5),
        "simkd student": student(kd.LossSpec("simkd"), 0.1),
    }


def best_time(run, epochs: int, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run(epochs)
        times.append(time.perf_counter() - start)
    return min(times)


def step_time(run, epochs: tuple, repeat: int) -> float:
    """Seconds per epoch of run, from its best times at two epoch counts."""
    low, high = epochs
    return (best_time(run, high, repeat) - best_time(run, low, repeat)) / (high - low)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    from fedkd import kd

    print(f"{'run':<16}{'us/step':>10}")
    for name, run in kd_runs(kd).items():
        print(f"{name:<16}{step_time(run, EPOCHS, REPEAT) * 1e6:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
