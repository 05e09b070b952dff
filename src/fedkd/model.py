"""Domain types and closed-form system physics.

Everything here is a pure function of its inputs: channel gain, wireless
transmission rate, the four per-epoch delay components of one training
round, and the full per-round cost objective that the optimizer minimizes.

Unit conventions (chosen so magnitudes stay near 1):
    CPU frequencies        GHz
    update costs (mu)      giga-cycles per epoch, so mu / f is seconds
    payload sizes (theta)  megabits
    bandwidth              MHz
    rates                  Mbit/s, so theta / rate is seconds
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class InfeasibleError(ValueError):
    """A requested evaluation has no finite value (e.g. zero transmit rate)."""


def _require(cond: bool, msg: str) -> None:
    """Raise ValueError(msg) unless cond.  msg is built before the call, so
    a check whose message formats values tests its condition inline
    instead and formats the message only when the check fails."""
    if not cond:
        raise ValueError(msg)


def _is_int(v) -> bool:
    """Whether v is an integer, numpy's included; a bool is not one."""
    # type() first: the ABC isinstance test costs about 0.5 us a value.
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether v is a real number, numpy's included; a bool is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_count(name: str, value, least: int) -> int:
    """value as a Python int, which json writes (a numpy integer it does
    not); refuses, naming name, a value that is not an integer or is
    below least."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class ChannelSpec:
    """Static path-loss channel: gain g0 at 1 m decaying as d^-gamma."""

    g0: float = 1e-4        # reference gain at 1 m, linear (-40 dB)
    gamma: float = 2.8      # path-loss exponent
    n0: float = 1e-13       # noise power, watts

    def __post_init__(self) -> None:
        _require(self.g0 > 0, "ChannelSpec.g0 must be > 0")
        _require(self.gamma > 0, "ChannelSpec.gamma must be > 0")
        _require(self.n0 > 0, "ChannelSpec.n0 must be > 0")


@dataclass(frozen=True)
class UserSpec:
    id: int
    f_loc: float            # local CPU frequency, GHz
    d: float                # distance to server, meters
    p: float = 0.1          # transmit power, watts

    def __post_init__(self) -> None:
        for name in ("f_loc", "d", "p"):
            if not getattr(self, name) > 0:
                raise ValueError(f"UserSpec.{name} must be > 0 (user {self.id})")


@dataclass(frozen=True)
class ModelSpec:
    """One candidate student network: its update cost mu and the payload
    theta_s synchronized between device and server, both per epoch."""

    name: str
    mu: float               # giga-cycles per epoch
    theta_s: float          # megabits

    def __post_init__(self) -> None:
        for name in ("mu", "theta_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"ModelSpec.{name} must be > 0 ({self.name})")


@dataclass(frozen=True)
class TeacherSpec:
    mu_t: float = 8.0       # teacher forward cost per epoch, giga-cycles
    theta_l: float = 20.0   # teacher-output payload, megabits

    def __post_init__(self) -> None:
        _require(self.mu_t > 0, "TeacherSpec.mu_t must be > 0")
        _require(self.theta_l > 0, "TeacherSpec.theta_l must be > 0")


#: The least server budget per user that a Scenario accepts: f_ser and
#: b_max must each be at least len(users) * RESOURCE_FLOOR.  No share is
#: clamped to it; the bound keeps budgets far above those at which the
#: open split's cost overflows (b_max near 1e-308) or a grid share's
#: rate rounds to 0.
RESOURCE_FLOOR = 1e-6


@dataclass(frozen=True)
class ServerSpec:
    f_ser: float = 10.0     # total divisible server CPU, GHz
    b_max: float = 10.0     # total bandwidth, MHz

    def __post_init__(self) -> None:
        _require(self.f_ser > 0, "ServerSpec.f_ser must be > 0")
        _require(self.b_max > 0, "ServerSpec.b_max must be > 0")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Nonnegative prices on delay, compute cost, bandwidth cost, and the
    (negated) per-user accuracy rewards."""

    alpha_d: float = 0.01   # per second of delay
    beta_c: float = 0.001   # per GHz-second of purchased server compute
    delta_b: float = 0.001  # per MHz of bandwidth
    eta_o: float = 1.0      # own-dataset accuracy reward
    eta_a: float = 0.25     # all-datasets average accuracy reward

    def __post_init__(self) -> None:
        vals = (self.alpha_d, self.beta_c, self.delta_b, self.eta_o, self.eta_a)
        _require(all(v >= 0 for v in vals), "ObjectiveWeights must be nonnegative")
        _require(any(v > 0 for v in vals), "ObjectiveWeights must not be all zero")


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: who the users are, what the server offers,
    which student models may be selected, and the objective prices."""

    users: tuple[UserSpec, ...]
    server: ServerSpec
    channel: ChannelSpec
    catalog: tuple[ModelSpec, ...]
    teacher: TeacherSpec
    weights: ObjectiveWeights

    def __post_init__(self) -> None:
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "catalog", tuple(self.catalog))
        _require(len(self.users) > 0, "Scenario.users must be non-empty")
        _require(len(self.catalog) > 0, "Scenario.catalog must be non-empty")
        names = [m.name for m in self.catalog]
        for i, name in enumerate(names):
            if name in names[:i]:    # a report keys the model frequencies by name
                raise ValueError(f"Scenario.catalog: duplicate name {name!r}")
        floor = len(self.users) * RESOURCE_FLOOR
        for name in ("f_ser", "b_max"):
            v = getattr(self.server, name)
            if not v >= floor:
                raise ValueError(f"server.{name} must be at least {len(self.users)} users x "
                                 f"RESOURCE_FLOOR ({RESOURCE_FLOOR:g}) = {floor:g}, got {v!r}")

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class Decision:
    """Per-user discrete choices: x_i = 1 trains the student on the local
    CPU (teacher outputs must then be transmitted), x_i = 0 trains the
    student's digital copy on the server.  m_i indexes the catalog."""

    x: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("x", "m"):    # ints, numpy's included; a bool, float or str is refused
            values = tuple(getattr(self, name))
            if not all(map(_is_int, values)):
                raise ValueError(f"Decision.{name} entries must be integers, got {values}")
            object.__setattr__(self, name, tuple(int(v) for v in values))
        _require(len(self.x) == len(self.m), "Decision.x and Decision.m lengths differ")
        _require(all(v in (0, 1) for v in self.x), "Decision.x entries must be 0 or 1")

    def validate(self, sc: Scenario) -> None:
        if len(self.x) != sc.n_users:
            raise ValueError(f"Decision covers {len(self.x)} users, scenario has {sc.n_users}")
        _require(all(0 <= mi < len(sc.catalog) for mi in self.m),
                 "Decision.m entries must index the catalog")


#: Relative slack Allocation.validate grants each budget for rounding in sums.
BUDGET_RTOL = 1e-9


@dataclass(frozen=True)
class Allocation:
    """Per-user continuous resources: server CPU shares f (GHz) and
    bandwidths b (MHz)."""

    f: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", tuple(float(v) for v in self.f))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        _require(len(self.f) == len(self.b), "Allocation.f and Allocation.b lengths differ")
        _require(all(v > 0 for v in self.f), "Allocation.f entries must be > 0")
        _require(all(v > 0 for v in self.b), "Allocation.b entries must be > 0")

    def validate(self, server: ServerSpec) -> None:
        f_sum, b_sum = sum(self.f), sum(self.b)
        if not f_sum <= server.f_ser * (1 + BUDGET_RTOL):
            raise ValueError(f"sum(f)={f_sum} exceeds server budget {server.f_ser}")
        if not b_sum <= server.b_max * (1 + BUDGET_RTOL):
            raise ValueError(f"sum(b)={b_sum} exceeds bandwidth budget {server.b_max}")


@dataclass(frozen=True)
class DelayBreakdown:
    """Seconds per training epoch, split into the four components."""

    t_tea: float    # teacher forward pass on the purchased server share
    t_stu: float    # student parameter update (server or local CPU)
    t_label: float  # teacher-output download, zero when training on server
    t_model: float  # student-parameter synchronization transfer

    def total(self) -> float:
        """Sum of all four components."""
        return self.t_tea + self.t_stu + self.t_label + self.t_model


def channel_gain(d: float, ch: ChannelSpec) -> float:
    """Linear channel gain g0 / d^gamma at distance d meters.  A distance
    whose d^gamma overflows a float is refused with a ValueError."""
    if d <= 0:
        raise ValueError(f"distance must be > 0, got {d}")
    try:
        return ch.g0 / d ** ch.gamma
    except OverflowError:
        raise ValueError(f"distance {d} m overflows d ** gamma at gamma = {ch.gamma}") from None


def spectral_efficiency(p: float, h: float, ch: ChannelSpec) -> float:
    """Rate per MHz of bandwidth, log2(1 + p*h/n0), in Mbit/s."""
    return math.log2(1.0 + p * h / ch.n0)


def user_efficiency(u: UserSpec, d: float, ch: ChannelSpec) -> float:
    """spectral_efficiency of user u at distance d.  One that rounds to 0
    leaves u no rate at any bandwidth, so no decision is feasible: it is
    refused with an InfeasibleError naming u and d."""
    e = spectral_efficiency(u.p, channel_gain(d, ch), ch)
    if not e > 0:
        raise InfeasibleError(f"user {u.id} has zero spectral efficiency at d = {d} m")
    return e


def tx_rate(b: float, p: float, h: float, ch: ChannelSpec) -> float:
    """Transmission rate b * spectral_efficiency(p, h, ch) in Mbit/s for
    bandwidth b MHz.

    n0 is a fixed total noise power, so the rate is exactly linear in b.
    b = 0 or p = 0 legitimately yields rate 0; callers that divide by the
    rate must handle that case.
    """
    if not b >= 0:
        raise ValueError(f"bandwidth must be >= 0, got {b}")
    if not p >= 0:
        raise ValueError(f"power must be >= 0, got {p}")
    if not h > 0:
        raise ValueError(f"channel gain must be > 0, got {h}")
    return b * spectral_efficiency(p, h, ch)


def delays(f_loc: float, mi: ModelSpec, teacher: TeacherSpec, xi: int,
           fi: float, rate_i: float) -> DelayBreakdown:
    """Per-epoch delay components for one user with local CPU frequency f_loc.

    The teacher always runs on the purchased server share fi.  The student
    update runs on fi when xi = 0 (server training) and on the user's own
    CPU when xi = 1 (local training); only local training needs the
    teacher outputs transmitted.  Model parameters are synchronized between
    physical and digital space either way.
    """
    if not fi > 0:
        raise ValueError(f"server CPU share must be > 0, got {fi}")
    if rate_i <= 0:
        raise InfeasibleError(f"transmit rate {rate_i} yields infinite delay")
    t_tea = teacher.mu_t / fi
    t_stu = mi.mu / f_loc if xi else mi.mu / fi
    t_label = teacher.theta_l / rate_i if xi else 0.0
    t_model = mi.theta_s / rate_i
    return DelayBreakdown(t_tea=t_tea, t_stu=t_stu, t_label=t_label, t_model=t_model)


def user_cost(sc: Scenario, xi: int, fi: float, bi: float, dl: DelayBreakdown,
              acc_own: float, acc_avg: float) -> float:
    """One user's term of the objective under sc's prices, for delays dl
    (from delays, at server share fi and bandwidth bi), offload flag xi and
    accuracies (fractions) acc_own, acc_avg:

        alpha_d * (t_tea + t_stu + t_model + x_i * t_label)
      + beta_c  * (t_tea * f_i + (1 - x_i) * t_stu * f_i)
      + delta_b * b_i
      - eta_o * acc_own_i - eta_a * acc_avg_i

    The beta term is allocation-independent by the identity
    t_tea * f_i = mu_t and (1 - x_i) * t_stu * f_i = (1 - x_i) * mu_{m_i}.
    """
    w = sc.weights
    delay = dl.t_tea + dl.t_stu + dl.t_model + xi * dl.t_label
    compute_cost = dl.t_tea * fi + (1 - xi) * dl.t_stu * fi
    return (w.alpha_d * delay + w.beta_c * compute_cost + w.delta_b * bi
            - w.eta_o * acc_own - w.eta_a * acc_avg)


def objective(sc: Scenario, dec: Decision, al: Allocation,
              acc_own: list[float] | tuple[float, ...],
              acc_avg: list[float] | tuple[float, ...]) -> float:
    """Total per-round cost for the given decision and allocation: each
    user's delays priced by user_cost, added left to right.  Accuracies
    are fractions in [0, 1]; a zero rate raises InfeasibleError."""
    dec.validate(sc)
    n = sc.n_users
    if len(al.f) != n:
        raise ValueError(f"Allocation covers {len(al.f)} users, expected {n}")
    if not len(acc_own) == len(acc_avg) == n:
        raise ValueError(f"accuracy lists must have one entry per user ({n})")
    _require(all(0.0 <= a <= 1.0 for a in acc_own), "acc_own entries must be in [0, 1]")
    _require(all(0.0 <= a <= 1.0 for a in acc_avg), "acc_avg entries must be in [0, 1]")
    total = 0.0
    for i, u in enumerate(sc.users):
        rate = tx_rate(al.b[i], u.p, channel_gain(u.d, sc.channel), sc.channel)
        dl = delays(u.f_loc, sc.catalog[dec.m[i]], sc.teacher, dec.x[i], al.f[i], rate)
        total += user_cost(sc, dec.x[i], al.f[i], al.b[i], dl, acc_own[i], acc_avg[i])
    return total


#: Catalog defaults.  Per-epoch update costs at 1 GHz are measured values;
#: payload sizes are configurable placeholders scaled to plausible
#: parameter counts (payloads are never published alongside the costs).
DEFAULT_CATALOG = (
    ModelSpec(name="VGG-8", mu=6.83, theta_s=150.0),
    ModelSpec(name="ResNet-8x4", mu=8.75, theta_s=39.0),
    ModelSpec(name="ResNet-14x4", mu=12.27, theta_s=88.0),
    ModelSpec(name="ResNet-26x4", mu=18.96, theta_s=186.0),
)

#: Four users spanning the default f_loc range [0.5, 2] GHz and the default
#: distance range [10, 100] m.
DEFAULT_USERS = (
    UserSpec(id=0, f_loc=0.5, d=10.0),
    UserSpec(id=1, f_loc=1.0, d=40.0),
    UserSpec(id=2, f_loc=1.5, d=70.0),
    UserSpec(id=3, f_loc=2.0, d=100.0),
)


def default_scenario() -> Scenario:
    """The stock 4-user / 4-model instance with default prices."""
    return Scenario(
        users=DEFAULT_USERS,
        server=ServerSpec(),
        channel=ChannelSpec(),
        catalog=DEFAULT_CATALOG,
        teacher=TeacherSpec(),
        weights=ObjectiveWeights(),
    )
