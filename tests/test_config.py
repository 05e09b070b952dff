import json

import pytest

from fedkd.config import (
    decision_from_dict,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from fedkd.model import default_scenario


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


@pytest.mark.parametrize("text, field", [
    ('{"users": [{"f_loc": 1e400, "d": 50.0}]}', r"users\[0\]\.f_loc"),
    ('{"weights": {"eta_o": 1e400}}', r"weights\.eta_o"),
    ('{"users": [{"f_loc": 1.0, "p": NaN, "d": 50.0}]}', r"users\[0\]\.p"),
    ('{"users": [{"f_loc": NaN, "d": 50.0}]}', r"users\[0\]\.f_loc"),
    ('{"server": {"b_max": -Infinity}}', r"server\.b_max"),
])
def test_non_finite_numbers_name_the_field(text, field):
    with pytest.raises(ValueError, match=field + ".*not finite"):
        load_scenario(text)


def test_unknown_keys_are_named():
    with pytest.raises(ValueError, match="bogus"):
        load_scenario('{"bogus": 1}')
    with pytest.raises(ValueError, match=r"server\.cores"):
        load_scenario('{"server": {"cores": 4}}')


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
