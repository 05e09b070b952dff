import numpy as np
import pytest

from fedkd.model import (
    ChannelSpec,
    ModelSpec,
    ObjectiveWeights,
    Scenario,
    ServerSpec,
    TeacherSpec,
    UserSpec,
    default_scenario,
)
from fedkd.qlearn import draw_builder


def finite_difference(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. array x.

    Perturbs x in place and restores it; fn() must re-read x.
    """
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fn()
        x[idx] = orig - h
        fm = fn()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def experiment_sampler(cfg):
    """run_experiment's training sampler for cfg: each episode reads
    draws.uniforms(2 * N) and maps it through one qlearn.draw_builder."""
    build, size = draw_builder(cfg.scenario, cfg.q), 2 * cfg.scenario.n_users
    return lambda draws: build(draws.uniforms(size))


def make_scenario(n_users=4, n_models=4, weights=None, seed=None) -> Scenario:
    """Default scenario, optionally shrunk and/or with redrawn users."""
    sc = default_scenario()
    users = sc.users[:n_users]
    if seed is not None:
        rng = np.random.Generator(np.random.PCG64(seed))
        users = tuple(
            UserSpec(id=i, f_loc=float(rng.uniform(0.5, 2.0)),
                     d=float(rng.uniform(10.0, 100.0)))
            for i in range(n_users))
    return Scenario(
        users=users,
        server=sc.server,
        channel=sc.channel,
        catalog=sc.catalog[:n_models],
        teacher=sc.teacher,
        weights=weights or sc.weights,
    )


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))
