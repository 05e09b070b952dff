"""Outside-in span tracer for the fedkd benchmark.

The tracer changes nothing in the package.  While installed, it replaces
every public function of every fedkd module, at every module attribute
that binds it (``fedkd.allocate``, ``fedkd.qlearn.allocate`` and
``fedkd.experiment.allocate`` all get the same wrapper), plus the method
``QTable.greedy_action``.  ``restore`` puts every original object back.

In ``fedkd.cli`` only ``main`` is wrapped: the ``cmd_*`` helpers are the
body of ``main``, so their glue (argparse, file writes, ``QTable.save``)
is the cli layer's own time.

Spans are aggregated in memory by (command, parent, name): calls,
inclusive seconds, and self seconds, where self time is the span's
duration minus the durations of the spans nested directly inside it.
A few wrappers also record counters at the layer boundary (reward
evaluations per episode, budget-binding allocations, enumerated actions,
matmul operations of the kd kernels).
"""

from __future__ import annotations

import functools
import inspect
import time
import types

#: Modules whose public functions are wrapped; each is also a binding site.
MODULES = ("fedkd", "fedkd.accuracy", "fedkd.allocator", "fedkd.cli", "fedkd.config",
           "fedkd.experiment", "fedkd.kd", "fedkd.model", "fedkd.qlearn")

#: The layers: fedkd's modules (the package's __init__ only re-exports).
LAYERS = ("cli", "config", "experiment", "qlearn", "allocator", "model", "accuracy", "kd")

#: Relative tolerance for "the bandwidth budget binds" (the allocator's
#: bisection stops within 1e-9 of b_max).
BINDING_RTOL = 1e-6

#: Units of per-layer metrics that are neither seconds nor counts.
PER_LAYER_UNITS = {
    "allocator.allocate.us_per_call": "us",
    "qlearn.greedy_action.us_per_call": "us",
    "qlearn.exhaustive_optimum.us_per_action": "us",
    "allocator.budget_binding_frac": "ratio",
    "allocator.self_frac_proposed": "ratio",
    "allocator.self_frac_fl": "ratio",
    "qlearn.greedy_action.self_frac_train-q": "ratio",
    "qlearn.reward_evals_per_episode": "ratio",
    "kd.gflop": "GFLOP_computed",
    "kd.gflop_per_s": "GFLOP_computed/s",
    "trace.overhead_frac": "ratio",
}


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


class Tracer:
    """In-memory span aggregator; one instance per traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict[tuple[str | None, str | None, str], list] = {}
        self.counters: dict[str, float] = {}
        self.command: str | None = None
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        dur = self.clock() - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.command, parent, name)
        rec = self.spans.get(key)
        if rec is None:
            self.spans[key] = [1, dur, dur - child_s]
        else:
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child_s

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def run_command(self, command: str, fn, *args):
        """Call fn(*args) as the root span of one benchmark operation."""
        self.command = command
        self.enter(command)
        try:
            return fn(*args)
        finally:
            self.exit()
            self.command = None

    def totals(self, command: str | None = None) -> dict[str, list]:
        """name -> [calls, inclusive_s, self_s], summed over parents
        (and over commands unless one is given)."""
        out: dict[str, list] = {}
        for (cmd, _parent, name), (calls, incl, self_s) in self.spans.items():
            if command is not None and cmd != command:
                continue
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        return out

    def layer_self_s(self, command: str | None = None) -> dict[str, float]:
        """module -> summed self time of its spans (command roots excluded)."""
        out: dict[str, float] = {}
        for name, (_calls, _incl, self_s) in self.totals(command).items():
            if "." in name:
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + self_s
        return out

    def dump(self) -> list[dict]:
        """The aggregated spans as JSON-ready records."""
        return [{"command": cmd, "parent": parent, "name": name, "calls": calls,
                 "inclusive_s": incl, "self_s": self_s}
                for (cmd, parent, name), (calls, incl, self_s) in sorted(
                    self.spans.items(), key=lambda kv: tuple(str(k) for k in kv[0]))]


def wrap(tracer: Tracer, name: str, fn, after=None):
    """fn inside a span; after(args, kwargs, result) runs once the span closes."""
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


# ---------------------------------------------------------------------------
# counters recorded at layer boundaries


def _forward_flops(p, n: int) -> int:
    flops = sum(2 * n * w.shape[0] * w.shape[1] for w in p.weights)
    return flops + 2 * n * p.w_out.shape[0] * p.w_out.shape[1]


def _encoder_backward_flops(p, n: int) -> int:
    return sum(4 * n * w.shape[0] * w.shape[1] for w in p.weights)


def _classifier_backward_flops(p, n: int) -> int:
    return 4 * n * p.w_out.shape[0] * p.w_out.shape[1]


#: Position of the dataset argument of each kd kernel; its length is the batch.
_BATCH_ARG = {"kd.hard_grads": 1, "kd.kd_grads": 2, "kd.simkd_grads": 3, "kd.net_eval": 1}


def matmul_flops(name: str, args: tuple) -> int:
    """Operations (a multiply and an add per product term) of the matmuls
    a kd kernel performs, computed from its positional argument shapes.
    Elementwise work is not counted."""
    p, batch = args[0], args[_BATCH_ARG[name]]
    n = len(batch) if getattr(batch, "ndim", 2) == 2 else 1
    flops = _forward_flops(p, n)
    if name in ("kd.hard_grads", "kd.kd_grads"):
        flops += _classifier_backward_flops(p, n) + _encoder_backward_flops(p, n)
    elif name == "kd.simkd_grads":
        proj = args[1]
        flops += 6 * n * proj.w.shape[0] * proj.w.shape[1] + _encoder_backward_flops(p, n)
    return flops


def _after_hooks(tracer: Tracer) -> dict:
    def allocate(args, kwargs, result):
        sc = args[0] if args else kwargs["sc"]
        b_max = sc.server.b_max
        tracer.count("allocator.binding", abs(sum(result.allocation.b) - b_max)
                     <= BINDING_RTOL * b_max)

    def exhaustive(args, kwargs, result):
        sc = args[0] if args else kwargs["sc"]
        tracer.count("qlearn.enumerated_actions", (2 * len(sc.catalog)) ** sc.n_users)

    def flops(name):
        def after(args, kwargs, result):
            tracer.count("kd.flop", matmul_flops(name, args))
        return after

    hooks = {"allocator.allocate": allocate, "qlearn.exhaustive_optimum": exhaustive}
    for name in _BATCH_ARG:
        hooks[name] = flops(name)
    return hooks


def _wrap_train_loop(tracer: Tracer, fn):
    """train_loop in a span, with its reward_fn argument wrapped in a
    counted span of its own and the returned table measured.  The
    reward_fn span is named after the module that defines the function,
    so its self time stays in that layer."""
    sig = inspect.signature(fn)

    def after(args, kwargs, table):
        tracer.count("qlearn.table_entries", len(table))
        tracer.count("qlearn.table_states", table.states)

    traced = wrap(tracer, "qlearn.train_loop", fn, after)

    @functools.wraps(fn)
    def train_loop(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        tracer.count("qlearn.episodes", bound.arguments["cfg"].episodes)
        reward_fn = bound.arguments["reward_fn"]
        bound.arguments["reward_fn"] = wrap(
            tracer, f"{reward_fn.__module__.rsplit('.', 1)[-1]}.reward_fn", reward_fn,
            lambda args, kwargs, result: tracer.count("qlearn.reward_evals"))
        return traced(*bound.args, **bound.kwargs)

    return train_loop


# ---------------------------------------------------------------------------
# install / restore


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or not isinstance(value, types.FunctionType):
            continue
        if not value.__module__.startswith("fedkd."):
            continue
        if value.__module__ == "fedkd.cli" and value.__name__ != "main":
            continue
        yield attr, value


def install(tracer: Tracer, modules) -> list[tuple[object, str, object]]:
    """Wrap every binding site; returns the (owner, attr, original) list
    that ``restore`` takes.  ``modules`` maps module name -> module."""
    hooks = _after_hooks(tracer)
    wrappers: dict[int, object] = {}

    def wrapper_for(fn):
        w = wrappers.get(id(fn))
        if w is None:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if name == "qlearn.train_loop":
                w = _wrap_train_loop(tracer, fn)
            else:
                w = wrap(tracer, name, fn, hooks.get(name))
            wrappers[id(fn)] = w
        return w

    sites = [(modules[name], attr, fn) for name in MODULES
             for attr, fn in _public_functions(modules[name])]
    qtable = modules["fedkd.qlearn"].QTable
    sites.append((qtable, "greedy_action", qtable.__dict__["greedy_action"]))
    replacements = [wrapper_for(fn) for _, _, fn in sites]
    for (owner, attr, _), replacement in zip(sites, replacements):
        setattr(owner, attr, replacement)
    return sites


def restore(originals) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)


def per_layer(tracer: Tracer, reps: int) -> dict[str, float]:
    """Per-layer metrics per workload repetition, named
    <module>.<function>.<stat>; functions never called read 0."""
    tot = tracer.totals()
    cnt = tracer.counters

    def stat(name, i, command=None):
        rec = (tracer.totals(command) if command else tot).get(name)
        return rec[i] if rec else 0

    def ratio(num, den):
        return num / den if den else 0.0

    raw: dict[str, float] = {}
    for name in ("allocator.allocate", "qlearn.greedy_action"):
        raw[f"{name}.calls"] = stat(name, 0)
        raw[f"{name}.self_s"] = stat(name, 2)
    for name in ("allocator.build_problem", "allocator.allocate_compute",
                 "allocator.allocate_bandwidth", "allocator.kkt_residual",
                 "model.tx_rate", "qlearn.train_loop", "qlearn.select_action",
                 "qlearn.encode_state", "qlearn.update", "qlearn.exhaustive_optimum",
                 "experiment.run_experiment", "experiment.decode_qonly",
                 "experiment.emit_report", "kd.make_train_test", "kd.train_teacher",
                 "kd.distill_student", "kd.net_eval", "kd.measure_accuracy",
                 "cli.main", "config.scenario_from_dict"):
        raw[f"{name}.self_s"] = stat(name, 2)
    for name in ("model.objective", "model.delays", "qlearn.reward",
                 "experiment.sample_scenario", "kd.hard_grads", "kd.kd_grads",
                 "kd.simkd_grads"):
        raw[f"{name}.calls"] = stat(name, 0)
        raw[f"{name}.self_s"] = stat(name, 2)
    for name in ("model.channel_gain", "accuracy.acc_pair"):
        raw[f"{name}.calls"] = stat(name, 0)
    layer_self = tracer.layer_self_s()
    # cli's only span is main, already reported as cli.main.self_s.
    for layer in LAYERS:
        if layer == "cli":
            continue
        raw[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    raw["qlearn.table_entries"] = cnt.get("qlearn.table_entries", 0)
    raw["qlearn.table_states"] = cnt.get("qlearn.table_states", 0)
    raw["allocator.allocate.calls_q-only"] = stat("allocator.allocate", 0,
                                                  "experiment-q-only")
    kernel_s = sum(stat(n, 1) for n in _BATCH_ARG)
    raw["kd.gflop"] = cnt.get("kd.flop", 0) / 1e9
    m = {name: value / reps for name, value in raw.items()}

    for name in ("allocator.allocate", "qlearn.greedy_action"):
        m[f"{name}.us_per_call"] = 1e6 * ratio(stat(name, 1), stat(name, 0))
    m["allocator.budget_binding_frac"] = ratio(cnt.get("allocator.binding", 0),
                                               stat("allocator.allocate", 0))
    m["qlearn.reward_evals_per_episode"] = ratio(cnt.get("qlearn.reward_evals", 0),
                                                 cnt.get("qlearn.episodes", 0))
    m["qlearn.exhaustive_optimum.us_per_action"] = 1e6 * ratio(
        stat("qlearn.exhaustive_optimum", 1), cnt.get("qlearn.enumerated_actions", 0))
    m["kd.gflop_per_s"] = ratio(raw["kd.gflop"], kernel_s)
    commands = {cmd for cmd, _, _ in tracer.spans if cmd}

    def share(prefix, part):
        """part(command) summed over the commands labelled prefix*, as a
        share of those commands' time."""
        cmds = [c for c in commands if c.startswith(prefix)]
        return ratio(sum(part(c) for c in cmds), sum(stat(c, 1, c) for c in cmds))

    for label, prefix in (("proposed", "experiment-proposed"), ("fl", "experiment-fl-")):
        m[f"allocator.self_frac_{label}"] = share(
            prefix, lambda c: tracer.layer_self_s(c).get("allocator", 0.0))
    m["qlearn.greedy_action.self_frac_train-q"] = share(
        "train-q", lambda c: stat("qlearn.greedy_action", 2, c))
    return m
