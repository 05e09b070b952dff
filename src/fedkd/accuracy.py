"""Published test-accuracy lookups for the student-model catalog.

The optimizer's accuracy terms come from measured results rather than
live training: top-1/top-5 percentages for each model under three
training methods (KD = distillation from the shared teacher, FL =
conventional parameter-averaging federated training, STU = isolated
local training), on IID and label-partitioned Non-IID data, tested on
the full class set and on each client's private slice.

The private split only differs from the full set under Non-IID
partitioning, so private records are stored for that distribution; under
IID the private and full distributions coincide and acc_pair falls back
to the full-set record.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

METHODS = ("KD", "FL", "STU")
DISTRIBUTIONS = ("iid", "noniid")
TESTSETS = ("full", "private")

Key = tuple[str, str, str, str, int]  # model, method, distribution, testset, topk


def canon_distribution(distribution: str) -> str:
    """distribution as the lookups read it: "Non-IID" reads "noniid"."""
    return distribution.replace("-", "").lower()


def _canon(model: str, method: str, distribution: str, testset: str, topk: int) -> Key:
    method = method.upper()
    distribution = canon_distribution(distribution)
    testset = testset.lower()
    if method not in METHODS:
        raise KeyError(f"unknown training method {method!r}; expected one of {METHODS}")
    if distribution not in DISTRIBUTIONS:
        raise KeyError(f"unknown distribution {distribution!r}; expected one of {DISTRIBUTIONS}")
    if testset not in TESTSETS:
        raise KeyError(f"unknown testset {testset!r}; expected one of {TESTSETS}")
    if topk not in (1, 5):
        raise KeyError(f"unknown topk {topk}; expected 1 or 5")
    return model, method, distribution, testset, int(topk)


@dataclass(frozen=True)
class AccuracyTable:
    """Immutable (model, method, distribution, testset, topk) -> percent map."""

    records: dict

    def __post_init__(self) -> None:
        for key, pct in self.records.items():
            if not 0.0 <= pct <= 100.0:
                raise ValueError(f"accuracy percent out of range for {key}: {pct}")
        for (model, method, dist, testset, topk), pct in self.records.items():
            if topk == 5:
                top1 = self.records.get((model, method, dist, testset, 1))
                if top1 is not None and pct < top1:
                    raise ValueError(
                        f"top-5 accuracy below top-1 for {model}/{method}/{dist}/{testset}")

    def models(self) -> list[str]:
        return sorted({key[0] for key in self.records})


def lookup_acc(table: AccuracyTable, model: str, method: str, distribution: str,
               testset: str, topk: int = 1) -> float:
    """Stored percent / 100 for the exact configuration; no interpolation."""
    key = _canon(model, method, distribution, testset, topk)
    pct = table.records.get(key)
    if pct is None:
        raise KeyError(
            f"no accuracy record for model={key[0]!r} method={key[1]} "
            f"distribution={key[2]} testset={key[3]} topk={key[4]}")
    return pct / 100.0


def acc_pair(table: AccuracyTable, model: str, method: str, distribution: str
             ) -> tuple[float, float]:
    """(own-dataset accuracy, all-datasets average accuracy), top-1, as fractions.

    The average enters the objective as the arithmetic mean of per-user
    full-set accuracies, which for a shared table equals the full-set
    value itself.  Under IID the private slice is distributed like the
    full set, so both entries come from the full-set record.
    """
    dist = _canon(model, method, distribution, "full", 1)[2]
    avg = lookup_acc(table, model, method, dist, "full")
    if dist == "iid":
        return avg, avg
    own = lookup_acc(table, model, method, dist, "private")
    return own, avg


def dump_table(table: AccuracyTable, fh) -> None:
    """Write the delimited interchange format (sorted, deterministic)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["model", "method", "distribution", "testset", "topk", "percent"])
    for key in sorted(table.records):
        writer.writerow(list(key) + [repr(table.records[key])])


def dumps_table(table: AccuracyTable) -> str:
    buf = io.StringIO()
    dump_table(table, buf)
    return buf.getvalue()


def _build_default() -> AccuracyTable:
    # (top-1, top-5) percent per model: full set under IID and Non-IID
    # training for all three methods, plus the Non-IID private slice.
    full = {
        "VGG-8": {
            ("KD", "iid"): (62.71, 86.61), ("KD", "noniid"): (23.60, 63.51),
            ("FL", "iid"): (59.90, 84.49), ("FL", "noniid"): (1.12, 5.01),
            ("STU", "iid"): (43.23, 73.83), ("STU", "noniid"): (18.16, 23.62),
        },
        "ResNet-8x4": {
            ("KD", "iid"): (68.13, 90.85), ("KD", "noniid"): (25.81, 67.88),
            ("FL", "iid"): (62.13, 87.00), ("FL", "noniid"): (1.47, 5.40),
            ("STU", "iid"): (45.26, 76.53), ("STU", "noniid"): (18.50, 24.00),
        },
        "ResNet-14x4": {
            ("KD", "iid"): (71.84, 92.40), ("KD", "noniid"): (28.48, 73.43),
            ("FL", "iid"): (65.64, 88.50), ("FL", "noniid"): (1.43, 5.11),
            ("STU", "iid"): (49.97, 79.29), ("STU", "noniid"): (19.35, 24.08),
        },
        "ResNet-26x4": {
            ("KD", "iid"): (72.55, 92.59), ("KD", "noniid"): (28.73, 73.51),
            ("FL", "iid"): (66.10, 89.22), ("FL", "noniid"): (1.23, 5.04),
            ("STU", "iid"): (49.32, 78.66), ("STU", "noniid"): (19.53, 24.20),
        },
    }
    private = {
        "VGG-8": {"KD": (86.53, 96.75), "FL": (4.47, 20.04), "STU": (72.59, 94.47)},
        "ResNet-8x4": {"KD": (89.46, 98.11), "FL": (5.88, 21.60), "STU": (73.95, 95.99)},
        "ResNet-14x4": {"KD": (90.98, 98.11), "FL": (5.72, 20.44), "STU": (77.36, 96.31)},
        "ResNet-26x4": {"KD": (90.14, 97.75), "FL": (4.92, 20.16), "STU": (78.08, 96.79)},
    }
    records = {}
    for model, by_cfg in full.items():
        for (method, dist), (t1, t5) in by_cfg.items():
            records[(model, method, dist, "full", 1)] = t1
            records[(model, method, dist, "full", 5)] = t5
    for model, by_method in private.items():
        for method, (t1, t5) in by_method.items():
            records[(model, method, "noniid", "private", 1)] = t1
            records[(model, method, "noniid", "private", 5)] = t5
    return AccuracyTable(records=records)


DEFAULT_TABLE = _build_default()
