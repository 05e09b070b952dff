"""Scenario (de)serialization.

A scenario is described by a JSON document with optional sections; any
omitted section or field falls back to the stock defaults (the 4-user,
4-model instance).  Example with every section present:

    {
      "users": [
        {"f_loc": 1.0, "d": 50.0, "p": 0.1}
      ],
      "server":  {"f_ser": 10.0, "b_max": 10.0},
      "channel": {"g0": 1e-4, "gamma": 2.8, "n0": 1e-13},
      "teacher": {"mu_t": 8.0, "theta_l": 20.0},
      "catalog": [
        {"name": "VGG-8", "mu": 6.83, "theta_s": 150.0}
      ],
      "weights": {"alpha_d": 0.01, "beta_c": 0.001, "delta_b": 0.001,
                  "eta_o": 1.0, "eta_a": 0.25},
      "decision": {"x": [0], "m": [0]}
    }

The optional "decision" block is consumed by the one-shot allocation
entry point.  Schema violations, wrong JSON types (true for a number,
say), non-finite numbers (JSON parsing turns NaN, Infinity and 1e400
into floats), a repeated user id (an id defaults to the user's
position) and a repeated catalog model name raise ValueError naming the
offending key; invariant violations surface the underlying message.
"""

from __future__ import annotations

import json
import math

from .model import (
    DEFAULT_CATALOG,
    DEFAULT_USERS,
    ChannelSpec,
    Decision,
    ModelSpec,
    ObjectiveWeights,
    Scenario,
    ServerSpec,
    TeacherSpec,
    UserSpec,
)


#: The JSON types each expected type accepts, and its name; bool never counts as an
#: int.  Keys are annotations as model.py writes them (its annotations stay strings).
_ACCEPTS = {"float": ((int, float), "a number"), "int": (int, "an integer"),
            "str": (str, "a string"), "list": (list, "an array"), "dict": (dict, "an object")}


def _check_type(value, kind: str, where: str) -> None:
    accepted, expected = _ACCEPTS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where}: expected {expected}, got {type(value).__name__}")


def _build(cls, data: dict, where: str, required=()):
    """Construct a parameter dataclass from a JSON object with field checks."""
    _check_type(data, "dict", where)
    kinds = {f.name: f.type for f in cls.__dataclass_fields__.values()}
    kwargs = {}
    for key, value in data.items():
        if key not in kinds:
            raise ValueError(f"{where}.{key}: unknown key")
        _check_type(value, kinds[key], f"{where}.{key}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where}.{key}: {value!r} is not finite")
        kwargs[key] = value
    for key in required:
        if key not in kwargs:
            raise ValueError(f"{where}.{key}: required key missing")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ValueError("scenario config must be a JSON object")
    known = {"users", "server", "channel", "teacher", "catalog", "weights", "decision"}
    for key in doc:
        if key not in known:
            raise ValueError(f"{key}: unknown top-level key")

    if "users" in doc:
        if not isinstance(doc["users"], list) or not doc["users"]:
            raise ValueError("users: expected a non-empty array")
        users = []
        for i, entry in enumerate(doc["users"]):
            # Checked before the spread below, which needs a mapping.
            _check_type(entry, "dict", f"users[{i}]")
            user = _build(UserSpec, {"id": i, **entry}, f"users[{i}]", required=("f_loc", "d"))
            if any(u.id == user.id for u in users):
                raise ValueError(f"users[{i}].id: duplicate id {user.id}")
            users.append(user)
        users = tuple(users)
    else:
        users = DEFAULT_USERS

    if "catalog" in doc:
        if not isinstance(doc["catalog"], list) or not doc["catalog"]:
            raise ValueError("catalog: expected a non-empty array")
        catalog = []
        for i, entry in enumerate(doc["catalog"]):
            model = _build(ModelSpec, entry, f"catalog[{i}]", required=("name", "mu", "theta_s"))
            if any(m.name == model.name for m in catalog):
                raise ValueError(f"catalog[{i}].name: duplicate name {model.name!r}")
            catalog.append(model)
        catalog = tuple(catalog)
    else:
        catalog = DEFAULT_CATALOG

    return Scenario(
        users=users,
        server=_build(ServerSpec, doc.get("server", {}), "server"),
        channel=_build(ChannelSpec, doc.get("channel", {}), "channel"),
        catalog=catalog,
        teacher=_build(TeacherSpec, doc.get("teacher", {}), "teacher"),
        weights=_build(ObjectiveWeights, doc.get("weights", {}), "weights"),
    )


def parse_document(text: str, source: str):
    """The JSON document in text; a ValueError naming source if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from exc


def load_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario config document."""
    return scenario_from_dict(parse_document(text, "scenario config"))


def decision_from_dict(doc: dict, sc: Scenario) -> Decision:
    """Extract and validate the optional per-user decision block."""
    block = doc.get("decision")
    if block is None:
        raise ValueError("decision: required block missing "
                         '(expected {"x": [...], "m": [...]})')
    _check_type(block, "dict", "decision")
    for key in block:
        if key not in ("x", "m"):
            raise ValueError(f"decision.{key}: unknown key")
    if "x" not in block or "m" not in block:
        raise ValueError("decision: both x and m arrays are required")
    for key in ("x", "m"):
        _check_type(block[key], "list", f"decision.{key}")
        for i, v in enumerate(block[key]):
            _check_type(v, "int", f"decision.{key}[{i}]")
    try:
        dec = Decision(x=tuple(block["x"]), m=tuple(block["m"]))
        dec.validate(sc)
    except ValueError as exc:
        raise ValueError(f"decision: {exc}") from exc
    return dec


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "users": [{"f_loc": u.f_loc, "d": u.d, "p": u.p} for u in sc.users],
        "server": {"f_ser": sc.server.f_ser, "b_max": sc.server.b_max},
        "channel": {"g0": sc.channel.g0, "gamma": sc.channel.gamma, "n0": sc.channel.n0},
        "teacher": {"mu_t": sc.teacher.mu_t, "theta_l": sc.teacher.theta_l},
        "catalog": [{"name": m.name, "mu": m.mu, "theta_s": m.theta_s}
                    for m in sc.catalog],
        "weights": {"alpha_d": sc.weights.alpha_d, "beta_c": sc.weights.beta_c,
                    "delta_b": sc.weights.delta_b, "eta_o": sc.weights.eta_o,
                    "eta_a": sc.weights.eta_a},
    }


def dump_scenario(sc: Scenario) -> str:
    return json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True)
