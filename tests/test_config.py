import json

import pytest

from fedkd.config import (
    decision_from_dict,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from fedkd.cli import main
from fedkd.model import RESOURCE_FLOOR, default_scenario


def test_empty_document_yields_stock_scenario():
    sc = load_scenario("{}")
    assert sc == default_scenario()


def test_roundtrip_is_equivalent():
    sc = default_scenario()
    assert load_scenario(dump_scenario(sc)) == sc


def test_omitted_channel_gets_defaults():
    sc = load_scenario('{"server": {"f_ser": 20.0}}')
    assert sc.channel.g0 == 1e-4
    assert sc.channel.gamma == 2.8
    assert sc.server.f_ser == 20.0
    assert sc.server.b_max == 10.0


def test_negative_local_frequency_names_the_key():
    doc = {"users": [{"f_loc": -1.0, "d": 50.0}]}
    with pytest.raises(ValueError, match=r"users\[0\]"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("text, message", [
    ('{"users": [{"f_loc": 1e400, "d": 50.0}]}', r"users\[0\]\.f_loc: .*not finite"),
    ('{"weights": {"eta_o": 1e400}}', r"weights\.eta_o: .*not finite"),
    ('{"users": [{"f_loc": 1.0, "p": NaN, "d": 50.0}]}', r"users\[0\]\.p: .*not finite"),
    ('{"users": [{"f_loc": NaN, "d": 50.0}]}', r"users\[0\]\.f_loc: .*not finite"),
    ('{"server": {"b_max": -Infinity}}', r"server\.b_max: .*not finite"),
    ('{"users": [{"f_loc": true, "d": 50}]}', r"users\[0\]\.f_loc: expected a number, got bool"),
    ('{"server": {"f_ser": true}}', r"server\.f_ser: expected a number, got bool"),
    ('{"users": [{"f_loc": "1.0", "d": 50}]}', r"users\[0\]\.f_loc: expected a number, got str"),
    ('{"users": [{"f_loc": 1.0, "d": 50, "id": false}]}',
     r"users\[0\]\.id: expected an integer, got bool"),
    ('{"catalog": [{"name": 3, "mu": 1.0, "theta_s": 2.0}]}',
     r"catalog\[0\]\.name: expected a string, got int"),
    ('{"weights": {"eta_a": null}}', r"weights\.eta_a: expected a number, got NoneType"),
])
def test_bad_values_name_the_field(text, message):
    with pytest.raises(ValueError, match=message):
        load_scenario(text)


@pytest.mark.parametrize("entry, got", [(5, "int"), ([1.0, 50.0], "list"), (None, "NoneType"),
                                        ("user", "str")])
def test_a_user_entry_that_is_not_an_object_is_named(entry, got):
    with pytest.raises(ValueError, match=rf"^users\[1\]: expected an object, got {got}$"):
        scenario_from_dict({"users": [{"f_loc": 1.0, "d": 50.0}, entry]})


def test_unknown_keys_are_named():
    with pytest.raises(ValueError, match="bogus"):
        load_scenario('{"bogus": 1}')
    with pytest.raises(ValueError, match=r"server\.cores"):
        load_scenario('{"server": {"cores": 4}}')


@pytest.mark.parametrize("users, message", [
    ([{"id": 0}, {"id": 0}], r"^users\[1\]\.id: duplicate id 0$"),
    ([{"id": 1}, {}], r"^users\[1\]\.id: duplicate id 1$"),     # the second id is its position
    ([{}, {}, {"id": 0}], r"^users\[2\]\.id: duplicate id 0$"),
])
def test_a_repeated_user_id_is_refused_naming_the_entry(users, message):
    with pytest.raises(ValueError, match=message):
        scenario_from_dict({"users": [{"f_loc": 1.0, "d": 50.0, **u} for u in users]})


VGG8 = {"name": "VGG-8", "mu": 6.83, "theta_s": 150.0}
RESNET = {"name": "ResNet-26x4", "mu": 18.96, "theta_s": 186.0}


@pytest.mark.parametrize("catalog, message", [
    ([VGG8, {**VGG8, "mu": 12.27}], r"^catalog\[1\]\.name: duplicate name 'VGG-8'$"),
    ([VGG8, RESNET, VGG8], r"^catalog\[2\]\.name: duplicate name 'VGG-8'$"),
    ([RESNET, VGG8, RESNET], r"^catalog\[2\]\.name: duplicate name 'ResNet-26x4'$"),
])
def test_a_repeated_catalog_name_is_refused_naming_the_entry(catalog, message):
    with pytest.raises(ValueError, match=message):
        scenario_from_dict({"catalog": catalog})


def test_user_ids_default_to_positions_and_may_be_set_apart():
    sc = scenario_from_dict({"users": [{"id": 7, "f_loc": 1.0, "d": 50.0},
                                       {"f_loc": 1.0, "d": 50.0}]})
    assert [u.id for u in sc.users] == [7, 1]


def test_missing_required_user_fields():
    with pytest.raises(ValueError, match=r"users\[0\]\.d"):
        scenario_from_dict({"users": [{"f_loc": 1.0}]})


def test_catalog_requires_all_fields():
    with pytest.raises(ValueError, match=r"catalog\[0\]\.theta_s"):
        scenario_from_dict({"catalog": [{"name": "m", "mu": 1.0}]})


def test_invalid_json_is_reported():
    with pytest.raises(ValueError, match="not valid JSON"):
        load_scenario("{")


def test_decision_block_roundtrip():
    sc = default_scenario()
    doc = {"decision": {"x": [0, 1, 0, 1], "m": [0, 1, 2, 3]}}
    dec = decision_from_dict(doc, sc)
    assert dec.x == (0, 1, 0, 1)
    assert dec.m == (0, 1, 2, 3)


def test_decision_block_validation():
    sc = default_scenario()
    with pytest.raises(ValueError, match="decision"):
        decision_from_dict({}, sc)
    with pytest.raises(ValueError, match="decision"):
        decision_from_dict({"decision": {"x": [0, 0, 0, 0], "m": [0, 0, 0, 9]}}, sc)
    with pytest.raises(ValueError, match="decision"):
        decision_from_dict({"decision": {"x": [0], "m": [0], "extra": 1}}, sc)


def test_scenario_dict_covers_all_sections():
    doc = scenario_to_dict(default_scenario())
    assert set(doc) == {"users", "server", "channel", "teacher", "catalog", "weights"}
    assert json.loads(dump_scenario(default_scenario())) == doc


def test_json_integers_are_numbers():
    sc = load_scenario('{"users": [{"f_loc": 1, "d": 50}], "server": {"f_ser": 10}}')
    assert (sc.users[0].f_loc, sc.users[0].d, sc.server.f_ser) == (1, 50, 10)


@pytest.mark.parametrize("block, message", [
    ({"x": [0, 0, 0, 0], "m": [0.5, 0, 0, 0]}, r"decision\.m\[0\]: expected an integer, got float"),
    ({"x": [0, 0, 0, 0], "m": [0, "1", 0, 0]}, r"decision\.m\[1\]: expected an integer, got str"),
    ({"x": [0, 0, True, 0], "m": [0, 0, 0, 0]}, r"decision\.x\[2\]: expected an integer, got bool"),
    ({"x": "0100", "m": [0, 0, 0, 0]}, r"decision\.x: expected an array, got str"),
    ({"x": [0, 0, 0, 0], "m": 0}, r"decision\.m: expected an array, got int"),
    ([0, 1], r"decision: expected an object, got list"),
])
def test_bad_decision_entries_name_the_key(block, message):
    with pytest.raises(ValueError, match=message):
        decision_from_dict({"decision": block}, default_scenario())


@pytest.mark.parametrize("server, field, value, bound", [
    ({"b_max": 1e-7}, "b_max", "1e-07", "4e-06"),
    ({"b_max": 1e-309}, "b_max", "1e-309", "4e-06"),
    ({"b_max": 5e-324}, "b_max", "5e-324", "4e-06"),
    ({"f_ser": 3.9e-6}, "f_ser", "3.9e-06", "4e-06"),
])
@pytest.mark.parametrize("argv", [
    ["experiment", "--method", "proposed", "--trials", "2", "--episodes", "100"],
    ["experiment", "--method", "q-only", "--trials", "2", "--episodes", "100"],
    ["train-q", "--episodes", "100"],
], ids=["proposed", "q-only", "train-q"])
def test_a_budget_below_the_users_resource_floors_is_refused_by_the_cli(
        tmp_path, capsys, server, field, value, bound, argv):
    # len(users) * RESOURCE_FLOOR is the least budget a Scenario accepts;
    # far below it the open split's cost overflows to -inf.
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"server": server}))
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: server.{field} must be at least 4 users x "
                            f"RESOURCE_FLOOR (1e-06) = {bound}, got {value}\n")
    assert not (tmp_path / "out").exists()


def test_a_budget_at_the_users_resource_floors_is_accepted():
    floor = 2 * RESOURCE_FLOOR
    users = [{"f_loc": 1.0, "d": 20.0}, {"f_loc": 1.0, "d": 30.0}]
    sc = scenario_from_dict({"users": users, "server": {"f_ser": floor, "b_max": floor}})
    assert (sc.server.f_ser, sc.server.b_max) == (floor, floor)
    with pytest.raises(ValueError, match=r"^server\.f_ser must be at least 3 users x"):
        scenario_from_dict({"users": [*users, users[0]],
                            "server": {"f_ser": floor, "b_max": 1.0}})
