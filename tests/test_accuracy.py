import io

import pytest

from fedkd.accuracy import (
    DEFAULT_TABLE,
    AccuracyTable,
    acc_pair,
    dumps_table,
    lookup_acc,
)

from oracles import check_complete, load_table

# Published top-1/top-5 percentages, transcribed directly from the source
# tables so any typo in the embedded defaults fails loudly here.
FULL_SET = {
    # model: {(method, dist): (top1, top5)}
    "VGG-8": {("KD", "iid"): (62.71, 86.61), ("KD", "noniid"): (23.60, 63.51),
              ("FL", "iid"): (59.90, 84.49), ("FL", "noniid"): (1.12, 5.01),
              ("STU", "iid"): (43.23, 73.83), ("STU", "noniid"): (18.16, 23.62)},
    "ResNet-8x4": {("KD", "iid"): (68.13, 90.85), ("KD", "noniid"): (25.81, 67.88),
                   ("FL", "iid"): (62.13, 87.00), ("FL", "noniid"): (1.47, 5.40),
                   ("STU", "iid"): (45.26, 76.53), ("STU", "noniid"): (18.50, 24.00)},
    "ResNet-14x4": {("KD", "iid"): (71.84, 92.40), ("KD", "noniid"): (28.48, 73.43),
                    ("FL", "iid"): (65.64, 88.50), ("FL", "noniid"): (1.43, 5.11),
                    ("STU", "iid"): (49.97, 79.29), ("STU", "noniid"): (19.35, 24.08)},
    "ResNet-26x4": {("KD", "iid"): (72.55, 92.59), ("KD", "noniid"): (28.73, 73.51),
                    ("FL", "iid"): (66.10, 89.22), ("FL", "noniid"): (1.23, 5.04),
                    ("STU", "iid"): (49.32, 78.66), ("STU", "noniid"): (19.53, 24.20)},
}

PRIVATE_SET = {
    "VGG-8": {"KD": (86.53, 96.75), "FL": (4.47, 20.04), "STU": (72.59, 94.47)},
    "ResNet-8x4": {"KD": (89.46, 98.11), "FL": (5.88, 21.60), "STU": (73.95, 95.99)},
    "ResNet-14x4": {"KD": (90.98, 98.11), "FL": (5.72, 20.44), "STU": (77.36, 96.31)},
    "ResNet-26x4": {"KD": (90.14, 97.75), "FL": (4.92, 20.16), "STU": (78.08, 96.79)},
}


def test_every_full_set_entry_is_exact():
    for model, by_cfg in FULL_SET.items():
        for (method, dist), (t1, t5) in by_cfg.items():
            assert lookup_acc(DEFAULT_TABLE, model, method, dist, "full", 1) == t1 / 100.0
            assert lookup_acc(DEFAULT_TABLE, model, method, dist, "full", 5) == t5 / 100.0


def test_every_private_set_entry_is_exact():
    for model, by_method in PRIVATE_SET.items():
        for method, (t1, t5) in by_method.items():
            assert lookup_acc(DEFAULT_TABLE, model, method, "noniid", "private", 1) == t1 / 100.0
            assert lookup_acc(DEFAULT_TABLE, model, method, "noniid", "private", 5) == t5 / 100.0


def test_spot_values():
    assert lookup_acc(DEFAULT_TABLE, "VGG-8", "KD", "iid", "full", 1) == 62.71 / 100.0
    assert lookup_acc(DEFAULT_TABLE, "ResNet-14x4", "KD", "noniid", "private", 1) == 90.98 / 100.0
    assert lookup_acc(DEFAULT_TABLE, "VGG-8", "FL", "noniid", "full", 1) == 1.12 / 100.0


def test_missing_key_raises_instead_of_defaulting():
    with pytest.raises(KeyError, match="no accuracy record"):
        lookup_acc(DEFAULT_TABLE, "LeNet-5", "KD", "iid", "full", 1)
    with pytest.raises(KeyError):
        lookup_acc(DEFAULT_TABLE, "VGG-8", "KD", "iid", "private", 1)
    with pytest.raises(KeyError, match="method"):
        lookup_acc(DEFAULT_TABLE, "VGG-8", "GAN", "iid", "full", 1)
    with pytest.raises(KeyError, match="topk"):
        lookup_acc(DEFAULT_TABLE, "VGG-8", "KD", "iid", "full", 3)


def test_acc_pair_noniid_uses_private_and_full():
    own, avg = acc_pair(DEFAULT_TABLE, "ResNet-14x4", "KD", "noniid")
    assert own == 0.9098
    assert avg == 0.2848


def test_acc_pair_iid_collapses_to_full_set():
    for model in FULL_SET:
        own, avg = acc_pair(DEFAULT_TABLE, model, "KD", "iid")
        assert own == avg == FULL_SET[model][("KD", "iid")][0] / 100.0


def test_acc_pair_distribution_spellings():
    assert acc_pair(DEFAULT_TABLE, "VGG-8", "KD", "Non-IID") == \
        acc_pair(DEFAULT_TABLE, "VGG-8", "KD", "noniid")


def test_top5_dominates_top1_everywhere():
    for (model, method, dist, testset, topk), pct in DEFAULT_TABLE.records.items():
        if topk == 1:
            t5 = DEFAULT_TABLE.records[(model, method, dist, testset, 5)]
            assert t5 >= pct


def test_top5_below_top1_rejected_on_construction():
    with pytest.raises(ValueError, match="top-5"):
        AccuracyTable(records={
            ("M", "KD", "iid", "full", 1): 50.0,
            ("M", "KD", "iid", "full", 5): 40.0,
        })


def test_percent_range_enforced():
    with pytest.raises(ValueError):
        AccuracyTable(records={("M", "KD", "iid", "full", 1): 120.0})


def test_complete_over_runner_configurations():
    check_complete(DEFAULT_TABLE, DEFAULT_TABLE.models(), methods=("KD", "FL", "STU"))


def test_dump_load_roundtrip():
    text = dumps_table(DEFAULT_TABLE)
    loaded = load_table(io.StringIO(text))
    assert loaded.records == DEFAULT_TABLE.records


def test_dump_is_deterministic():
    assert dumps_table(DEFAULT_TABLE) == dumps_table(DEFAULT_TABLE)


def test_load_rejects_malformed_input():
    with pytest.raises(ValueError, match="header"):
        load_table(io.StringIO("nope\n"))
    header = "model,method,distribution,testset,topk,percent\n"
    with pytest.raises(ValueError, match="6 fields"):
        load_table(io.StringIO(header + "VGG-8,KD,iid,full,1\n"))
    with pytest.raises(ValueError, match="duplicate"):
        load_table(io.StringIO(header + "M,KD,iid,full,1,10\nM,KD,iid,full,1,11\n"))
